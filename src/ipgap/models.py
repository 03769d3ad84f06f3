"""Margin models for multiway tables, plus small named instances.

A marginal model fixes some subsets of the axes of a d1 x ... x dn
table; the released data are the sums over each subset's complementary
axes.  The resulting zero-one constraint matrix feeds the gap machinery
to measure how badly LP bounds on a single cell can miss the true
integer bounds.  Also here: the change-making instance and a family of
rank-3 lattices with a known decomposition pattern, used as fixtures
throughout the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import prod

from .errors import BadParameter, Value
from .exactmath import IntMatrix
from .gapcore import GapInstance
from .toric import TermOrder


class MarginalModel(Value):
    """Table dimensions plus the released faces, in release order."""

    dims: tuple[int, ...]
    faces: tuple[tuple[int, ...], ...]

    def __init__(self, dims, faces):
        dims = tuple(int(d) for d in dims)
        if not dims or any(d < 2 for d in dims):
            raise BadParameter("every table dimension must be at least 2")
        n = len(dims)
        clean = []
        for face in faces:
            face = tuple(sorted(set(int(j) for j in face)))
            if not face or face[0] < 1 or face[-1] > n:
                raise BadParameter(f"face {face} is not a nonempty subset of 1..{n}")
            clean.append(face)
        if not clean:
            raise BadParameter("a model needs at least one face")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "faces", tuple(clean))

    @property
    def ncells(self) -> int:
        return prod(self.dims)


def cells(dims) -> list[tuple[int, ...]]:
    """All 1-based cell indices in lexicographic (last axis fastest) order."""
    return [tuple(c) for c in product(*(range(1, d + 1) for d in dims))]


def margin_matrix(model: MarginalModel) -> IntMatrix:
    """Zero-one matrix mapping a table to its released margins.

    Row blocks follow the model's face order; within a face the rows run
    lexicographically over that face's index range; columns are table
    cells in lexicographic order.
    """
    cols = cells(model.dims)
    rows = []
    for face in model.faces:
        axes = [j - 1 for j in face]
        for k in product(*(range(1, model.dims[j] + 1) for j in axes)):
            rows.append(
                tuple(
                    1 if all(cell[j] == ki for j, ki in zip(axes, k)) else 0
                    for cell in cols
                )
            )
    return IntMatrix(rows)


def _entry_cost(model: MarginalModel, sense: str):
    if sense not in ("min", "max"):
        raise BadParameter(f"sense must be min or max, not {sense!r}")
    lead = Fraction(-1) if sense == "max" else Fraction(1)
    return (lead,) + (Fraction(0),) * (model.ncells - 1)


def entry_instance(
    model: MarginalModel, sense: str = "max", tiebreak: str = "revgrevlex"
) -> GapInstance:
    """Gap instance asking for the first cell's bound of the given sense.

    sense=max measures the upper entry bound, sense=min the lower one.
    Every face's rows sum each cell into some margin, so the fibers are
    bounded, and the margin row blocks act transitively on cells, so the
    first cell stands in for all of them.  The gap of
    gap_report(entry_instance(model, sense)) is the worst LP error when
    bounding one table entry over all margins.

    The unit cost leaves almost every pair of table moves tied, so the
    order is refined to a total one: each fiber gets a unique optimum and
    the non-optimal ideal is the full leading-term ideal.  The gap value
    itself does not depend on the refinement; the default revgrevlex
    (ties prefer mass on cells that come early in the cell order) is the
    convention the reported generators and components are stated in.
    """
    order = TermOrder.refined(_entry_cost(model, sense), tiebreak)
    return GapInstance.from_matrix(margin_matrix(model), order)


def k4_model() -> MarginalModel:
    """All six 2-faces of a 2x2x2x2 table."""
    return MarginalModel((2, 2, 2, 2), tuple(combinations((1, 2, 3, 4), 2)))


def transportation_model(d1: int, d2: int) -> MarginalModel:
    """Row and column sums of a d1 x d2 table."""
    return MarginalModel((d1, d2), ((1,), (2,)))


def coin_instance():
    """Change-making fixture: coin count and value rows, nickel+quarter cost."""
    return IntMatrix([[1, 1, 1, 1], [1, 5, 10, 25]]), (0, 1, 0, 1)


def lattice_family(r: int) -> IntMatrix:
    """Rank-3 lattice with gap 2r-1 and 2r-5 component decomposition.

    Columns generate the lattice spanned by (r,r,r), (r-1,r+1,r-1) and
    (0,0,r-2); its index in Z^3 is 2r(r-2).
    """
    if r < 4:
        raise BadParameter("the family needs r >= 4")
    return IntMatrix(
        [
            [r, r - 1, 0],
            [r, r + 1, 0],
            [r, r - 1, r - 2],
        ]
    )


def _canonical_faces(faces, perm):
    mapped = sorted(tuple(sorted(perm[j - 1] for j in face)) for face in faces)
    return tuple(mapped)


def simplicial_model_representatives() -> list[MarginalModel]:
    """One 2x2x2x2 model per simplicial complex on four vertices.

    A complex is identified with its facet set: a nonempty antichain of
    nonempty subsets of {1,2,3,4}.  Vertex relabelings give the same
    model up to row/column permutation, so only the lexicographically
    least facet set of each symmetry orbit is kept.
    """
    from itertools import permutations

    subsets = [
        tuple(s)
        for k in range(1, 5)
        for s in combinations((1, 2, 3, 4), k)
    ]
    perms = [p for p in permutations((1, 2, 3, 4))]
    reps = set()
    for mask in range(1, 1 << len(subsets)):
        family = [subsets[i] for i in range(len(subsets)) if mask >> i & 1]
        ok = all(
            not (set(a) <= set(b) or set(b) <= set(a))
            for a, b in combinations(family, 2)
        )
        if not ok:
            continue
        reps.add(min(_canonical_faces(family, p) for p in perms))
    return [MarginalModel((2, 2, 2, 2), faces) for faces in sorted(reps)]
