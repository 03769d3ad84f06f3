"""Command-line surface: instance files in, deterministic reports out.

An instance file is line-based text.  One of three source blocks must be
present:

    matrix:            lattice:           model:
    1 1 1 1            4 3 0              dims: 2 2 2 2
    1 5 10 25          4 5 0              face: 1 2
    cost: 0 1 0 1      4 3 2              face: 3 4
                       cost: 1 1 1        sense: max

Rows of a matrix or lattice block are bare integer lines.  Other fields:
cost (rationals like 3/4 or -2; matrices and lattices only), names (one
label per variable), tiebreak, sense (models only), box (oracle bounds,
one integer or one per column), budget (fan exploration cap, a
nonnegative integer).  A cost in a model, or a sense outside one, is
an error.  Every field and source block is given at most once, except
cost (one weight row per line) and face; a repeat is an error at its
line.  '#' starts a comment.  Command-line flags override file fields.

Reports are deterministic: equal inputs and flags give byte-identical
output, except lines starting with '#', which carry advisory notes: the
elapsed time (on stderr with --format json, so stdout is one JSON
document) and a Schrijver bound left out at its minor cap.
Exact rationals are printed in lowest terms as p/q; decimal renderings
are 10-digit truncations and advisory only.  Exit codes: 0 success,
1 mathematical domain error, 2 bad input, 3 internal verification
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from functools import cache

from . import oracle
from .errors import BadParameter, IpgapError, ParseError, Value, VerificationError
from .exactmath import IntMatrix
from .fan import DEFAULT_BUDGET, explore_cones, gap_fan_subdivide
from .gapcore import GapInstance, GapReport, gap_report
from .models import MarginalModel, _entry_cost, cells, entry_instance, margin_matrix
from .monomial import IrreducibleComponent
from .toric import TIEBREAKS


class InstanceSpec(Value):
    """Parsed instance file, before flags are applied."""

    matrix: IntMatrix | None = None
    lattice: IntMatrix | None = None
    model: MarginalModel | None = None
    # weight rows, applied in sequence; one row is the usual case, more
    # make tie resolution part of optimality
    cost: tuple[tuple[Fraction, ...], ...] | None = None
    names: tuple[str, ...] | None = None
    tiebreak: str | None = None
    sense: str | None = None
    box: tuple[int, ...] | None = None
    budget: int | None = None


# the keys a file may give more than once; any other repeat is an error
_REPEATABLE = ("cost", "face")


def _numbers(text: str, lineno: int, col0: int, kind: type) -> tuple:
    """The blank- or comma-separated numbers of text, each read by kind.

    kind is int or Fraction; col0 is the column of text's first character.
    """
    out = []
    pos = 0
    for tok in text.replace(",", " ").split():
        pos = text.index(tok, pos)
        try:
            out.append(kind(tok))
        except (ValueError, ZeroDivisionError):
            noun = "an integer" if kind is int else "a rational"
            raise ParseError(f"expected {noun}, got {tok!r}", lineno, col0 + pos)
        pos += len(tok)
    return tuple(out)


def parse_instance_text(text: str) -> InstanceSpec:
    # the source blocks given: a matrix's or lattice's rows, a model's dims
    # (empty until its dims: line)
    blocks: dict[str, list | tuple] = {}
    faces: list[tuple[int, ...]] = []
    fields: dict = {}
    # where each key was first given, for repeats and the source's checks
    where: dict = {}
    block = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        content = raw.split("#", 1)[0]
        line = content.strip()
        if not line:
            continue
        indent = len(content) - len(content.lstrip())
        key, sep, _ = line.partition(":")
        if not sep:
            row = _numbers(line, lineno, indent + 1, int)
            if block not in ("matrix", "lattice"):
                raise ParseError(
                    "numeric row outside a matrix/lattice block", lineno, indent + 1
                )
            rows = blocks[block]
            if rows and len(row) != len(rows[0]):
                raise ParseError(
                    f"row has {len(row)} entries, the block's first row {len(rows[0])}",
                    lineno, indent + 1,
                )
            rows.append(row)
            continue
        key = key.strip().lower()
        colon = content.index(":")
        vraw = content[colon + 1 :]
        vcol = colon + 2 + (len(vraw) - len(vraw.lstrip()))
        value = vraw.strip()
        if key in where and key not in _REPEATABLE:
            raise ParseError(
                f"{key} given twice, first on line {where[key][0]}", lineno, indent + 1
            )
        where.setdefault(key, (lineno, indent + 1))
        if key in ("matrix", "lattice", "model"):
            block = key
            blocks[key] = [] if key != "model" else ()
        elif key in ("dims", "face"):
            if block != "model":
                raise ParseError(f"{key} belongs inside a model block", lineno, indent + 1)
            row = _numbers(value, lineno, vcol, int)
            if not row:
                raise ParseError(f"{key} needs an integer", lineno, vcol)
            if key == "dims":
                blocks["model"] = row
            else:
                faces.append(row)
        elif key == "cost":
            row = _numbers(value, lineno, vcol, Fraction)
            fields["cost"] = fields.get("cost", ()) + (row,)
        elif key == "names":
            fields["names"] = tuple(value.split())
        elif key == "tiebreak":
            if value not in TIEBREAKS:
                raise ParseError(f"unknown tiebreak {value!r}", lineno, vcol)
            fields["tiebreak"] = value
        elif key == "sense":
            if value not in ("min", "max"):
                raise ParseError(
                    f"sense must be min or max, not {value!r}", lineno, vcol
                )
            fields["sense"] = value
        elif key == "box":
            fields["box"] = _numbers(value, lineno, vcol, int)
        elif key == "budget":
            budget = _numbers(value, lineno, vcol, int)
            if not budget:
                raise ParseError("budget needs an integer", lineno, vcol)
            if len(budget) > 1:
                raise ParseError("budget takes one integer", lineno, vcol)
            if budget[0] < 0:
                raise ParseError("budget must be nonnegative", lineno, vcol)
            fields["budget"] = budget[0]
        else:
            raise ParseError(f"unknown field {key!r}", lineno, indent + 1)
    one_source = "an instance needs exactly one of a matrix, a lattice, or a model"
    if not blocks:
        raise ParseError(one_source)
    if len(blocks) > 1:
        # reported at the second source block's header
        raise ParseError(one_source, *sorted(where[k] for k in blocks)[1])
    ((source, rows),) = blocks.items()
    if not rows:
        noun = "dims" if source == "model" else "rows"
        raise ParseError(f"{source} block has no {noun}", *where[source])
    if source == "model":
        if "cost" in fields:
            raise ParseError(
                "cost belongs to a matrix or lattice; a model's cost is set by sense",
                *where["cost"],
            )
        return InstanceSpec(model=MarginalModel(rows, faces), **fields)
    if "sense" in fields:
        raise ParseError("sense belongs inside a model block", *where["sense"])
    return InstanceSpec(**{source: IntMatrix(rows)}, **fields)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror}")
    except UnicodeDecodeError as e:
        raise ParseError(f"cannot read {path}: not UTF-8 text (byte {e.start})")


def load_instance(path: str) -> InstanceSpec:
    return parse_instance_text(_read_text(path))


# ---------------------------------------------------------------- rendering


def _dec10(x: Fraction) -> str:
    """Ten fractional digits, truncated toward zero; advisory only."""
    sign = "-" if x < 0 else ""
    ax = -x if x < 0 else x
    whole, rem = divmod(ax.numerator, ax.denominator)
    return f"{sign}{whole}.{rem * 10**10 // ax.denominator:010d}"


def _rat_with_dec(x: Fraction) -> str:
    return f"{x} (~ {_dec10(x)})"


def _vec(xs) -> str:
    return "(" + ", ".join(str(x) for x in xs) + ")"


def _mono(exps, names) -> str:
    parts = [
        names[i] + (f"^{e}" if e > 1 else "") for i, e in enumerate(exps) if e
    ]
    return " ".join(parts) if parts else "1"


def _binomial(g, names) -> str:
    return f"{_mono(g.plus, names)} - {_mono(g.minus, names)}"


def _component_ideal(comp: IrreducibleComponent, names) -> str:
    parts = [
        names[i] + (f"^{comp.bound[i] + 1}" if comp.bound[i] else "")
        for i in comp.support
    ]
    return "<" + ", ".join(parts) + ">"


def _default_names(spec: InstanceSpec, nvars: int) -> tuple[str, ...]:
    if spec.names is not None:
        if len(spec.names) != nvars:
            raise BadParameter(
                f"{len(spec.names)} names given for {nvars} variables"
            )
        return spec.names
    if spec.model is not None:
        return tuple(
            "x_" + "".join(str(i) for i in cell) for cell in cells(spec.model.dims)
        )
    return tuple(f"x{i + 1}" for i in range(nvars))


# ----------------------------------------------------------- construction


def _sense(spec: InstanceSpec, args) -> str | None:
    """A model's entry bound sense: --sense, else the field, else max.

    None for a matrix or lattice instance, which --sense, like the sense
    field, does not apply to.
    """
    flag = getattr(args, "sense", None)
    if spec.model is None:
        if flag is not None:
            raise BadParameter("--sense applies to model instances only")
        return None
    return flag or spec.sense or "max"


def _build_instance(spec: InstanceSpec, args) -> GapInstance:
    tiebreak = getattr(args, "tiebreak", None) or spec.tiebreak
    sense = _sense(spec, args)
    if spec.model is not None:
        return entry_instance(spec.model, sense, tiebreak or "revgrevlex")
    if spec.cost is None:
        raise ParseError("matrix and lattice instances need a cost field")
    if spec.matrix is not None:
        return GapInstance.from_matrix(spec.matrix, spec.cost, tiebreak or "grevlex")
    return GapInstance.from_lattice(spec.lattice, spec.cost, tiebreak or "grevlex")


def _preamble(spec: InstanceSpec, args) -> tuple[GapInstance, tuple[str, ...], list[str]]:
    """The instance, its variable names and the report's header lines."""
    inst = _build_instance(spec, args)
    names = _default_names(spec, inst.nvars)
    if spec.model is not None:
        dims = "x".join(str(d) for d in spec.model.dims)
        faces = " ".join(
            "{" + ",".join(str(j) for j in face) + "}" for face in spec.model.faces
        )
        src = f"model {dims} table, faces {faces}"
    elif spec.matrix is not None:
        src = f"matrix {spec.matrix.nrows} x {spec.matrix.ncols}"
    else:
        src = f"lattice {inst.lattice.nrows} x {inst.lattice.ncols}"
    lines = [f"instance: {src}"]
    for row in spec.cost if spec.cost is not None else (inst.cost,):
        lines.append(f"cost: {_vec(row)}")
    lines.append(f"variables: {' '.join(names)}")
    return inst, names, lines


# ------------------------------------------------------------------ reports


def _component_data(index: int, comp: IrreducibleComponent, names) -> dict:
    return {"index": index, "ideal": _component_ideal(comp, names),
            "support": list(comp.support), "bound": list(comp.bound)}


def _report_data(inst: GapInstance, rep: GapReport, names):
    comps = [
        {
            **_component_data(i, entry.component, names),
            "value": str(entry.value),
            "aux_optimum": [str(x) for x in entry.aux_optimum],
        }
        for i, entry in enumerate(rep.per_component, 1)
    ]
    data = {
        "gap": str(rep.gap),
        "gap_decimal": _dec10(rep.gap),
        "groebner_size": len(inst.groebner.elements),
        "minimal_generators": len(inst.ideal.gens),
        "components": comps,
        "winner": None,
        "witness_z": list(rep.witness_z),
    }
    if rep.winner is not None:
        data["winner"] = next(
            i for i, entry in enumerate(rep.per_component, 1)
            if entry.component == rep.winner
        )
    if inst.matrix is not None:
        data["witness_b"] = list(inst.matrix.mul_vector(rep.witness_z))
        if rep.schrijver_bound is None:
            data["schrijver_bound"] = None
            data["schrijver_bound_reason"] = rep.schrijver_bound_reason
        else:
            data["schrijver_bound"] = str(rep.schrijver_bound)
    return data


def cmd_gap(spec: InstanceSpec, args) -> tuple[list[str], dict]:
    inst, names, lines = _preamble(spec, args)
    rep = gap_report(inst)
    data = _report_data(inst, rep, names)
    lines += [
        f"groebner elements: {data['groebner_size']}",
        f"minimal generators: {data['minimal_generators']}",
        f"components: {len(data['components'])}",
    ]
    if args.format == "text":  # main prints lines for a text report only
        for c, entry in zip(data["components"], rep.per_component):
            lines.append(f"component {c['index']}: {c['ideal']}")
            lines.append(f"  bound monomial: {_mono(entry.component.bound, names)}")
            lines.append(f"  value: {_rat_with_dec(entry.value)}")
            lines.append(f"  aux optimum: {_vec(entry.aux_optimum)}")
    lines.append(f"gap: {_rat_with_dec(rep.gap)}")
    if data["winner"] is None:
        lines.append("winner: none (non-optimal ideal is zero)")
    else:
        win = data["components"][data["winner"] - 1]
        lines.append(f"winner: component {win['index']} {win['ideal']}")
    lines.append(f"witness z: {_vec(rep.witness_z)}")
    if inst.matrix is not None:
        lines.append(f"witness b: {_vec(data['witness_b'])}")
        if data["schrijver_bound"] is None:
            lines.append(f"# {rep.schrijver_bound_reason}")
        else:
            lines.append(f"schrijver bound: {data['schrijver_bound']}")
    return lines, data


def cmd_decompose(spec: InstanceSpec, args) -> tuple[list[str], dict]:
    inst, names, lines = _preamble(spec, args)
    lines.append(f"minimal generators: {len(inst.ideal.gens)}")
    for i, g in enumerate(inst.ideal.gens, 1):
        lines.append(f"  g{i}: {_mono(g, names)}")
    lines.append(f"components: {len(inst.components)}")
    comps = [_component_data(i, c, names) for i, c in enumerate(inst.components, 1)]
    for c in comps:
        lines.append(f"  component {c['index']}: {c['ideal']}")
    data = {
        "minimal_generators": [list(g) for g in inst.ideal.gens],
        "components": comps,
    }
    return lines, data


def cmd_gb(spec: InstanceSpec, args) -> tuple[list[str], dict]:
    inst, names, lines = _preamble(spec, args)
    lines.append(f"groebner elements: {len(inst.groebner.elements)}")
    for i, g in enumerate(inst.groebner.elements, 1):
        lines.append(f"  {i}: {_binomial(g, names)}")
    data = {
        "elements": [
            {"lead": list(g.plus), "trail": list(g.minus), "text": _binomial(g, names)}
            for g in inst.groebner.elements
        ]
    }
    return lines, data


def cmd_witness(spec: InstanceSpec, args) -> tuple[list[str], dict]:
    inst, _, lines = _preamble(spec, args)
    rep = gap_report(inst)
    data = {"gap": str(rep.gap), "witness_z": list(rep.witness_z)}
    lines.append(f"gap: {_rat_with_dec(rep.gap)}")
    lines.append(f"witness z: {_vec(rep.witness_z)}")
    if inst.matrix is not None:
        # the values gap_report verified at the witness
        b = inst.matrix.mul_vector(rep.witness_z)
        ipval, relax = rep.witness_ip, rep.witness_lp
        data["witness_b"] = list(b)
        data["ip_value"] = str(ipval)
        data["lp_value"] = str(relax)
        lines.append(f"witness b: {_vec(b)}")
        lines.append(f"integer optimum: {_vec(rep.witness_optimum)} with value {ipval}")
        lines.append(f"relaxation value: {_rat_with_dec(relax)}")
        lines.append(f"difference: {_rat_with_dec(ipval - relax)}")
    return lines, data


def cmd_margins(spec: InstanceSpec, args) -> tuple[list[str], dict]:
    if spec.model is None:
        raise BadParameter("margins needs a model instance")
    a = margin_matrix(spec.model)
    rank = a.rank()
    lines = [f"margin matrix: {a.nrows} x {a.ncols}, rank {rank}"]
    for row in a.rows:
        lines.append(" ".join(str(x) for x in row))
    data = {"nrows": a.nrows, "ncols": a.ncols, "rank": rank,
            "rows": [list(r) for r in a.rows]}
    return lines, data


# ------------------------------------------------------------------- oracle


def cmd_oracle(spec: InstanceSpec, args) -> tuple[list[str], dict]:
    sense = _sense(spec, args)
    if spec.model is not None:
        a = margin_matrix(spec.model)
        cost = _entry_cost(spec.model, sense)
    elif spec.matrix is not None:
        a = spec.matrix
        if spec.cost is None:
            raise ParseError("matrix instances need a cost field")
        cost = spec.cost[0]
    else:
        raise BadParameter("the oracle needs a matrix or model instance")
    box = args.box or spec.box
    if box is None:
        raise BadParameter("the oracle needs --box bounds")
    if len(box) == 1:
        box = box * a.ncols
    value, z = oracle.brute_gap_box(a, cost, box)
    lines = [
        f"instance: matrix {a.nrows} x {a.ncols}",
        f"cost: {_vec(cost)}",
        f"box: {_vec(box)}",
        f"oracle gap: {_rat_with_dec(value)}",
        f"attained at z: {_vec(z)}",
    ]
    data = {
        "box": list(box),
        "oracle_gap": str(value),
        "attained_at": list(z),
    }
    if args.verify:
        inst = _build_instance(spec, args)
        rep = gap_report(inst)
        data["computed_gap"] = str(rep.gap)
        if value > rep.gap:
            raise VerificationError(
                f"oracle found gap {value} above the computed gap {rep.gap}"
            )
        if value == rep.gap:
            lines.append(f"verify: {value} matches the computed gap")
            data["verify"] = "match"
        else:
            lines.append(
                f"verify: oracle {value} below the computed gap {rep.gap} "
                "(box too small to attain it)"
            )
            data["verify"] = "below"
    return lines, data


# --------------------------------------------------------------------- fan


def _load_seeds(path: str) -> list[tuple[Fraction, ...]]:
    seeds = []
    for lineno, raw in enumerate(_read_text(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            indent = len(raw) - len(raw.lstrip())
            seeds.append(_numbers(line, lineno, indent + 1, Fraction))
    if not seeds:
        raise ParseError(f"no seed costs in {path}")
    return seeds


def cmd_fan(spec: InstanceSpec, args) -> tuple[list[str], dict]:
    if spec.matrix is None:
        raise BadParameter("the fan exploration needs a matrix instance")
    # the walk orders every cone by one cost row under grevlex
    if spec.tiebreak not in (None, "grevlex"):
        raise BadParameter(
            f"fan walks grevlex orders only; the tiebreak field says {spec.tiebreak}"
        )
    if spec.cost is not None and len(spec.cost) > 1:
        raise BadParameter(f"fan takes one cost row; the cost field gives {len(spec.cost)}")
    a = spec.matrix
    if args.seeds:
        seeds = _load_seeds(args.seeds)
    elif spec.cost is not None:
        seeds = [spec.cost[0]]
    else:
        raise ParseError("fan needs a cost field or a --seeds file")
    budget = next(b for b in (args.budget, spec.budget, DEFAULT_BUDGET) if b is not None)
    names = _default_names(spec, a.ncols)
    cones = explore_cones(a, seeds, budget)
    lines = [
        f"instance: matrix {a.nrows} x {a.ncols}",
        f"seeds: {len(seeds)}",
        f"cones discovered: {len(cones)}",
    ]
    data_cones = []
    total_pieces = 0
    for i, (gb, cone) in enumerate(cones, 1):
        inst = GapInstance.from_basis(a, gb, cone.center)
        pieces = gap_fan_subdivide(inst, cone)
        total_pieces += len(pieces)
        lines.append(f"cone {i}:")
        for h in cone.inequalities:
            lines.append(f"  facet: {_vec(h)} . c >= 0")
        lines.append(f"  ideal: <{', '.join(_mono(g, names) for g in inst.ideal.gens)}>")
        lines.append(f"  components: {len(inst.components)}")
        for comp in inst.components:
            lines.append(f"    {_component_ideal(comp, names)}")
        lines.append(f"  pieces: {len(pieces)}")
        piece_data = []
        for j, piece in enumerate(pieces, 1):
            lines.append(
                f"  piece {j}: winner {_component_ideal(piece.winner, names)}"
                f", gap form {_vec(piece.linear_form)} . c"
            )
            piece_data.append(
                {
                    "winner": _component_ideal(piece.winner, names),
                    "winner_support": list(piece.winner.support),
                    "winner_bound": list(piece.winner.bound),
                    "linear_form": [str(x) for x in piece.linear_form],
                    "inequalities": [list(h) for h in piece.cone.inequalities],
                }
            )
        data_cones.append(
            {
                "index": i,
                "inequalities": [list(h) for h in cone.inequalities],
                "ideal_generators": [list(g) for g in inst.ideal.gens],
                "components": [
                    {"support": list(c.support), "bound": list(c.bound)}
                    for c in inst.components
                ],
                "pieces": piece_data,
            }
        )
    lines.append(f"gap pieces total: {total_pieces}")
    data = {"cones": data_cones, "pieces_total": total_pieces}
    return lines, data


# -------------------------------------------------------------------- main


COMMANDS = {
    "gap": cmd_gap,
    "decompose": cmd_decompose,
    "gb": cmd_gb,
    "fan": cmd_fan,
    "oracle": cmd_oracle,
    "witness": cmd_witness,
    "margins": cmd_margins,
}


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as is."""
    top = argparse.ArgumentParser(
        prog="ipgap",
        description="Exact integer-programming gap computations.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("gap", "full gap report with per-component values and witness"),
        ("decompose", "minimal generators and irreducible components"),
        ("gb", "reduced Groebner basis of the lattice ideal"),
        ("fan", "explore cost cones and the gap function's pieces"),
        ("oracle", "brute-force gap over a box of nonnegative points"),
        ("witness", "witness right-hand side attaining the gap"),
        ("margins", "print a model's margin matrix"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("instance", help="instance file path")
        p.add_argument(
            "--format", choices=("text", "json"),
            default="text", help="report format (default text)",
        )
        if name in ("gap", "decompose", "gb", "witness", "oracle"):
            p.add_argument(
                "--tiebreak", choices=TIEBREAKS, default=None,
                help="order tiebreak (default grevlex; models revgrevlex)",
            )
            p.add_argument(
                "--sense", choices=("min", "max"), default=None,
                help="entry bound sense for model instances (default max)",
            )
        if name == "fan":
            p.add_argument("--seeds", default=None, help="file of seed cost rows")
            p.add_argument(
                "--budget", type=int, default=None,
                help="cap on exploration basis computations"
                f" (default {DEFAULT_BUDGET})",
            )
        if name == "oracle":
            p.add_argument(
                "--box",
                type=lambda s: tuple(int(t) for t in s.split(",")),
                default=None,
                help="bounds N or N,N,... for the scanned points",
            )
            p.add_argument(
                "--verify", action="store_true",
                help="cross-check the oracle gap against the computed gap",
            )
    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        spec = load_instance(args.instance)
        lines, data = COMMANDS[args.command](spec, args)
    except IpgapError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    if args.format == "json":
        out = json.dumps(data, indent=2)
    else:
        out = "\n".join(lines)
    print(out)
    # a JSON stdout holds the one document only
    elapsed = sys.stderr if args.format == "json" else sys.stdout
    print(f"# elapsed: {time.monotonic() - t0:.2f} s", file=elapsed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
