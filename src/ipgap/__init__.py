"""Exact worst-case gap between integer programs and their relaxations.

The distance IP(b) - LP(b) between an integer program min c.z, Az = b,
z >= 0 and its linear relaxation depends on the right-hand side b; its
supremum over all feasible b is a finite rational invariant of (A, c).
This package computes it exactly: a reduced Groebner basis of the lattice
ideal of ker A identifies the non-optimal integer points, the irreducible
decomposition of that monomial ideal cuts the search into finitely many
corners, and one auxiliary linear program per corner produces the gap,
the component attaining it, and a witness right-hand side.  Everything
runs in rational arithmetic; a brute-force oracle and a cost-space fan
subdivision round out the toolkit.
"""

from .errors import (
    BadParameter,
    DegenerateCone,
    EmptyFiber,
    FiberCapExceeded,
    InfiniteFiber,
    InputError,
    IpgapError,
    MathDomainError,
    MinorCapExceeded,
    NonTerminatingOrder,
    ParseError,
    TrivialInstance,
    UnboundedAux,
    UnboundedProgram,
    UnitIdeal,
    VerificationError,
    WitnessMismatch,
    ZeroIdeal,
)
from .exactmath import IntMatrix, hermite_normal_form, kernel_lattice
from .fan import (
    Cone,
    GapFanPiece,
    explore_cones,
    gap_fan_subdivide,
    groebner_cone,
)
from .gapcore import (
    ComponentGap,
    GapInstance,
    GapReport,
    gap,
    gap_report,
    gap_value,
    gap_witness,
    schrijver_bound,
)
from .models import (
    MarginalModel,
    cells,
    coin_instance,
    entry_instance,
    k4_model,
    lattice_family,
    margin_matrix,
    simplicial_model_representatives,
    transportation_model,
)
from .monomial import (
    IrreducibleComponent,
    MonomialIdeal,
    irreducible_decomposition,
    minimal_generators,
)
from .oracle import brute_gap_box, brute_ip, enumerate_fiber
from .toric import (
    Binomial,
    GroebnerBasis,
    TermOrder,
    buchberger,
    ip_optimum,
    is_generic,
    lattice_ideal_generators,
    non_optimal_ideal,
)

__version__ = "0.1.0"

__all__ = [
    "BadParameter",
    "Binomial",
    "ComponentGap",
    "Cone",
    "DegenerateCone",
    "EmptyFiber",
    "FiberCapExceeded",
    "GapFanPiece",
    "GapInstance",
    "GapReport",
    "GroebnerBasis",
    "InfiniteFiber",
    "InputError",
    "IntMatrix",
    "IpgapError",
    "IrreducibleComponent",
    "MarginalModel",
    "MathDomainError",
    "MinorCapExceeded",
    "MonomialIdeal",
    "NonTerminatingOrder",
    "ParseError",
    "TermOrder",
    "TrivialInstance",
    "UnboundedAux",
    "UnboundedProgram",
    "UnitIdeal",
    "VerificationError",
    "WitnessMismatch",
    "ZeroIdeal",
    "brute_gap_box",
    "brute_ip",
    "buchberger",
    "cells",
    "coin_instance",
    "entry_instance",
    "enumerate_fiber",
    "explore_cones",
    "gap",
    "gap_fan_subdivide",
    "gap_report",
    "gap_value",
    "gap_witness",
    "groebner_cone",
    "hermite_normal_form",
    "ip_optimum",
    "irreducible_decomposition",
    "is_generic",
    "k4_model",
    "kernel_lattice",
    "lattice_family",
    "lattice_ideal_generators",
    "margin_matrix",
    "minimal_generators",
    "non_optimal_ideal",
    "schrijver_bound",
    "simplicial_model_representatives",
    "transportation_model",
]
