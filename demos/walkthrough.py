"""Guided tour of the library API on the coin-change instance.

Run from the repository root:

    python3 demos/walkthrough.py           # coin + lattice family, instant
    python3 demos/walkthrough.py --full    # adds the 16-variable table model
"""

import sys
from fractions import Fraction

from ipgap import (
    GapInstance,
    brute_gap_box,
    coin_instance,
    entry_instance,
    explore_cones,
    gap_fan_subdivide,
    gap_report,
    k4_model,
    lattice_family,
    TermOrder,
)

NAMES = "pndq"


def mono(exps):
    return " ".join(
        NAMES[i] + (f"^{e}" if e > 1 else "") for i, e in enumerate(exps) if e
    ) or "1"


def main():
    a, cost = coin_instance()
    print("pennies, nickels, dimes, quarters; cost charges n and q")
    inst = GapInstance.from_matrix(a, cost)
    print(f"reduced basis has {len(inst.groebner.elements)} binomials;"
          f" non-optimal ideal <{', '.join(mono(g) for g in inst.ideal.gens)}>")

    rep = gap_report(inst)
    print(f"gap = {rep.gap} = {float(rep.gap):.10f}")
    for entry in rep.per_component:
        c = entry.component
        gens = ", ".join(
            NAMES[i] + f"^{c.bound[i] + 1}" if c.bound[i] else NAMES[i]
            for i in c.support
        )
        print(f"  component <{gens}>: value {entry.value}")
    print(f"worst right-hand side: b = A z for z = {rep.witness_z},"
          f" b = {a.mul_vector(rep.witness_z)}")

    # the oracle sees the same number without ever touching a basis
    value, z = brute_gap_box(a, cost, (4, 2, 0, 4))
    assert value == rep.gap and z == rep.witness_z
    print(f"brute-force scan agrees: {value} at z = {z}")

    # how the answer moves with the cost: cones and the piecewise form
    cones = explore_cones(a, [(1, 2, 3, 4), (4, 3, 2, 1), (1, 1, 2, 3)], 300)
    pieces = sum(len(gap_fan_subdivide(
        GapInstance.from_matrix(a, cn.interior_point()))) for _, cn in cones)
    print(f"cost space: {len(cones)} cones carrying {pieces} linear pieces")

    # a lattice family whose gap grows linearly while components stay sparse
    print()
    for r in (4, 6, 8):
        inst = GapInstance.from_lattice(
            lattice_family(r), TermOrder.degree_lexicographic(3)
        )
        rep = gap_report(inst)
        print(f"family r={r}: {len(inst.components)} components,"
              f" gap {rep.gap}, witness {rep.witness_z}")

    if "--full" in sys.argv[1:]:
        print()
        print("binary four-way tables, all six two-way margins fixed"
              " (1 to 2 s)...")
        rep = gap_report(entry_instance(k4_model()))
        assert rep.gap == Fraction(5, 3)
        print(f"largest relaxed cell entry exceeds the integer bound by"
              f" {rep.gap}; witness table {rep.witness_z}")


if __name__ == "__main__":
    main()
