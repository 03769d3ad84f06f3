"""Value semantics of the package's immutable classes.

Each class below is built twice from equal inputs.  The two objects must
be equal with equal hashes, the hash must be that of the compared
fields' tuple (so set and dict orders stay as they are), the fields left
out of comparison must not change equality, assignment and deletion
must raise AttributeError, and repr must show the listed fields in
order.  IrreducibleComponent orders by (support, bound); some classes
must survive pickle and deepcopy.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from ipgap.cli import InstanceSpec
from ipgap.exactmath import IntMatrix
from ipgap.fan import Cone, GapFanPiece
from ipgap.gapcore import GapInstance, GapReport, LatticeIdeal, gap_report
from ipgap.lp import LPProblem, LPSolution
from ipgap.models import MarginalModel, coin_instance
from ipgap.monomial import IrreducibleComponent, MonomialIdeal
from ipgap.toric import Binomial, GroebnerBasis, TermOrder


def _coin():
    a, c = coin_instance()
    return GapInstance.from_matrix(a, c)


def _spec():
    return InstanceSpec(
        matrix=IntMatrix([[1, 2]]),
        cost=((Fraction(1), Fraction(2)),),
        names=("a", "b"),
        tiebreak="lex",
        sense="max",
        box=(1, 2),
        budget=3,
    )


def _piece():
    return GapFanPiece(
        Cone(2, [(1, 0), (0, 1)]),
        IrreducibleComponent((0,), (1, 0)),
        (Fraction(1, 2), Fraction(0)),
    )


def _gb():
    order = TermOrder((1, 2), "lex")
    return GroebnerBasis((Binomial((1, 0), (0, 1)), Binomial((2, 0), (0, 0))), order)


# name: (factory, compared fields, fields repr shows)
CASES = {
    "InstanceSpec": (
        _spec,
        ("matrix", "lattice", "model", "cost", "names", "tiebreak", "sense", "box", "budget"),
        None,
    ),
    "IntMatrix": (lambda: IntMatrix([[1, 2], [3, 4]]), ("rows", "width"), None),
    "Cone": (lambda: Cone(2, [(2, 0), (0, 1), (0, 3)]), ("nvars", "inequalities"), None),
    "GapFanPiece": (_piece, ("cone", "winner", "linear_form"), None),
    "LatticeIdeal": (lambda: LatticeIdeal(IntMatrix([[1], [-1]])), ("lattice",), None),
    "GapInstance": (
        _coin,
        ("matrix", "lattice_ideal", "cost", "groebner", "ideal", "components"),
        None,
    ),
    "GapReport": (
        lambda: gap_report(_coin()),
        ("per_component", "gap", "winner", "attaining", "witness_z"),
        (
            "per_component", "gap", "winner", "attaining", "witness_z",
            "witness_optimum", "witness_ip", "witness_lp",
        ),
    ),
    "LPProblem": (
        lambda: LPProblem((1, Fraction(1, 2)), "max", (((1, 1), 3),), (((1, 0), 2),), (True, False)),
        ("objective", "sense", "eq", "ub", "free"),
        None,
    ),
    "LPSolution": (
        lambda: LPSolution("optimal", Fraction(3), (Fraction(1), Fraction(2)), pivots=4),
        ("status", "value", "x"),
        ("status", "value", "x", "pivots"),
    ),
    "MarginalModel": (lambda: MarginalModel((2, 3), [(2, 1), (2,)]), ("dims", "faces"), None),
    "MonomialIdeal": (lambda: MonomialIdeal(2, [(1, 1), (1, 0), (0, 2)]), ("nvars", "gens"), None),
    "IrreducibleComponent": (
        lambda: IrreducibleComponent((2, 0), (1, 0, 3)),
        ("support", "bound"),
        None,
    ),
    "Binomial": (lambda: Binomial((1, 0, 2), (0, 1, 0)), ("plus", "minus"), None),
    "TermOrder": (lambda: TermOrder((1, Fraction(1, 2)), "lex"), ("costs", "tiebreak"), None),
    "GroebnerBasis": (_gb, ("elements", "order"), None),
}


def _fields(obj, names):
    return tuple(getattr(obj, name) for name in names)


@pytest.mark.parametrize("name", CASES)
def test_equal_inputs_give_equal_values_with_the_field_tuple_hash(name):
    factory, compared, _ = CASES[name]
    a, b = factory(), factory()
    assert type(a).__name__ == name
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(_fields(a, compared))
    assert len({a, b}) == 1
    # another class never compares equal, even with the same fields
    assert a.__eq__(_fields(a, compared)) is NotImplemented
    assert a != _fields(a, compared)


@pytest.mark.parametrize("name", CASES)
def test_values_are_immutable(name):
    factory, compared, _ = CASES[name]
    obj = factory()
    for attr in (compared[0], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(obj, attr, None)
    with pytest.raises(AttributeError):
        delattr(obj, compared[0])
    assert getattr(obj, compared[0]) == getattr(factory(), compared[0])


@pytest.mark.parametrize("name", CASES)
def test_repr_shows_the_fields_in_order(name):
    factory, compared, shown = CASES[name]
    obj = factory()
    body = ", ".join(f"{f}={getattr(obj, f)!r}" for f in shown or compared)
    assert repr(obj) == f"{name}({body})"


def test_repr_pins():
    assert repr(IrreducibleComponent((2, 0), (1, 0, 3))) == (
        "IrreducibleComponent(support=(0, 2), bound=(1, 0, 3))"
    )
    assert repr(LPSolution("infeasible", pivots=2)) == (
        "LPSolution(status='infeasible', value=None, x=None, pivots=2)"
    )
    assert repr(TermOrder((1, 2))) == (
        "TermOrder(costs=((Fraction(1, 1), Fraction(2, 1)),), tiebreak='grevlex')"
    )
    assert repr(IntMatrix([], 2)) == "IntMatrix(rows=(), width=2)"


def test_uncompared_fields_leave_equality_alone():
    report = gap_report(_coin())
    other = GapReport(
        report.per_component,
        report.gap,
        report.winner,
        report.attaining,
        report.witness_z,
        None,
        witness_optimum=(9,),
        witness_ip=7,
        witness_lp=Fraction(1, 3),
    )
    assert other == report and hash(other) == hash(report)
    assert GapReport(*_fields(report, CASES["GapReport"][1]), report.instance) == report
    moved = GapReport(
        report.per_component, report.gap, report.winner, report.attaining, (0,) * 4, None
    )
    assert moved != report
    assert LPSolution("optimal", Fraction(1), (Fraction(1),), 3) == LPSolution(
        "optimal", Fraction(1), (Fraction(1),), 9
    )
    assert LPSolution("optimal", Fraction(1)) != LPSolution("optimal", Fraction(2))


def test_constructor_defaults_and_keywords():
    spec = InstanceSpec()
    assert _fields(spec, CASES["InstanceSpec"][1]) == (None,) * 9
    assert InstanceSpec(budget=5).budget == 5
    sol = LPSolution("unbounded")
    assert (sol.value, sol.x, sol.pivots) == (None, None, 0)
    assert LPSolution(status="optimal", x=(1,), value=2).x == (1,)
    prob = LPProblem((1, 2))
    assert (prob.sense, prob.eq, prob.ub, prob.free) == ("min", (), (), (False, False))
    report = GapReport((), Fraction(0), None, (), (), None)
    assert (report.witness_optimum, report.witness_ip, report.witness_lp) == ((), 0, 0)
    gb = _gb()
    assert GroebnerBasis(order=gb.order, elements=gb.elements) == gb
    with pytest.raises(TypeError):
        LPSolution("optimal", None, None, 0, "extra")
    with pytest.raises(TypeError):
        LPSolution("optimal", bogus=1)
    with pytest.raises(TypeError):
        LPSolution("optimal", status="optimal")
    with pytest.raises(TypeError):
        GroebnerBasis(gb.elements)


COMPONENTS = [
    IrreducibleComponent((0,), (1, 0)),
    IrreducibleComponent((0,), (2, 0)),
    IrreducibleComponent((0, 1), (0, 0)),
    IrreducibleComponent((1,), (0, 0)),
    IrreducibleComponent((1,), (0, 0)),
]


def test_components_order_by_support_then_bound():
    for a in COMPONENTS:
        for b in COMPONENTS:
            ka, kb = (a.support, a.bound), (b.support, b.bound)
            assert (a < b, a <= b, a > b, a >= b) == (ka < kb, ka <= kb, ka > kb, ka >= kb)
    assert sorted(reversed(COMPONENTS)) == COMPONENTS
    for op in ("__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(COMPONENTS[0], op)(((0,), (1, 0))) is NotImplemented
    with pytest.raises(TypeError):
        COMPONENTS[0] < ((0,), (1, 0))


@pytest.mark.parametrize("name", ["IntMatrix", "IrreducibleComponent", "GroebnerBasis", "LPSolution", "GapInstance"])
def test_pickle_and_deepcopy_round_trip(name):
    factory, compared, _ = CASES[name]
    obj = factory()
    for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
        assert type(twin) is type(obj) and twin is not obj
        assert twin == obj and hash(twin) == hash(obj)
        assert repr(twin) == repr(obj)


def test_cached_properties_are_kept_per_object():
    inst = _coin()
    assert inst._aux_setup is inst._aux_setup
    assert inst.lattice_ideal.generators is inst.lattice_ideal.generators
    report = gap_report(inst)
    assert report.schrijver_bound == report.schrijver_bound
    assert "_schrijver" in vars(report)
    cone = Cone(2, [(1, 0), (0, 1)])
    assert cone.center is cone.center == (Fraction(1), Fraction(1))
    assert pickle.loads(pickle.dumps(cone)).center == cone.center
