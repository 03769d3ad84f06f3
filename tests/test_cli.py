import json
import os
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

from ipgap import cli, exactmath, gapcore
from ipgap.errors import ParseError

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"

COIN = str(DEMOS / "coin.txt")
K4 = str(DEMOS / "k4.txt")
LATTICE_R5 = str(DEMOS / "lattice_r5.txt")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def canonical(out: str) -> str:
    """Report body without advisory comment lines."""
    return "\n".join(l for l in out.splitlines() if not l.startswith("#"))


def test_parse_instance_fields():
    spec = cli.parse_instance_text(
        "# header comment\n"
        "matrix:\n"
        "1 1 1 1\n"
        "1 5 10 25   # a row comment\n"
        "cost: 0 1/1 0 2/2\n"
        "names: p n d q\n"
        "tiebreak: grlex\n"
        "box: 3, 4, 5, 6\n"
        "budget: 17\n"
    )
    assert spec.matrix.rows == ((1, 1, 1, 1), (1, 5, 10, 25))
    assert spec.cost == ((0, 1, 0, 1),)
    assert spec.names == ("p", "n", "d", "q")
    assert spec.tiebreak == "grlex"
    assert spec.box == (3, 4, 5, 6)
    assert spec.budget == 17


def test_parse_multiple_cost_rows():
    spec = cli.parse_instance_text(
        "lattice:\n5 4 0\n5 6 0\n5 4 3\ncost: 1 1 1\ncost: 1 0 0\n"
    )
    assert spec.cost == ((1, 1, 1), (1, 0, 0))


def test_parse_model_block():
    spec = cli.parse_instance_text(
        "model:\ndims: 2 2\nface: 1\nface: 2\nsense: min\n"
    )
    assert spec.model.dims == (2, 2)
    assert spec.model.faces == ((1,), (2,))
    assert spec.sense == "min"


@pytest.mark.parametrize(
    "text, line, column",
    [
        ("matrix:\n1 2 x\n", 2, 5),
        ("matrix:\n1 2\ncost: 1 oops\n", 3, 9),
        ("model:\ndims: 2 2\nface: 1\nbox: -1 nine\n", 4, 9),
        ("matrix:\n1 2 3\n1 2\n", 3, 1),
        ("lattice:\n1 0\n 0 1 1\n", 3, 2),
        ("matrix:\n1 2\nbudget:\n", 3, 8),
        # a key other than cost and face is given once, so a repeat is
        # reported where it stands instead of replacing the first
        ("matrix:\n1 5 7\nmatrix:\n1 2 3\ncost: 1 1 1\n", 3, 1),
        ("model:\ndims: 2 2\nface: 1\nmodel:\n", 4, 1),
        ("model:\ndims: 2 2\nface: 1\ndims: 3 3\n", 4, 1),
        ("matrix:\n1 2\ntiebreak: lex\ntiebreak: grlex\n", 4, 1),
        ("matrix:\n1 2\nnames: a b\nnames: c d\n", 4, 1),
        ("model:\ndims: 2 2\nface: 1\nsense: min\nsense: max\n", 5, 1),
        ("matrix:\n1 2\nbox: 1\nbox: 2\n", 4, 1),
        ("matrix:\n1 2\nbudget: 3 99\n", 3, 9),
        ("model:\ndims:\n", 2, 6),
        ("model:\ndims: 2 2\nface:\n", 3, 6),
        # a model header that cannot be placed is reported where it stands
        ("matrix:\n1 1\ncost: 0 1\nmodel:\nface: 1\n", 4, 1),
        ("model:\nface: 1\n", 1, 1),
    ],
)
def test_parse_errors_carry_position(text, line, column):
    with pytest.raises(ParseError) as exc:
        cli.parse_instance_text(text)
    assert exc.value.line == line
    assert exc.value.column == column
    assert f"line {line}, column {column}" in str(exc.value)


@pytest.mark.parametrize(
    "text, message",
    [
        ("matrix:\n1 2 x\n", "expected an integer, got 'x'"),
        ("matrix:\n1 2\ncost: 1 oops\n", "expected a rational, got 'oops'"),
        ("matrix:\n1 2\ncost: 1/0 1\n", "expected a rational, got '1/0'"),
        ("matrix:\n1 5 7\nmatrix:\n1 2 3\n", "matrix given twice, first on line 1"),
        ("matrix:\n1 2\nbudget: 3 99\n", "budget takes one integer"),
        ("model:\ndims:\n", "dims needs an integer"),
        ("model:\ndims: 2 2\nface:\n", "face needs an integer"),
        (
            "matrix:\n1 1\ncost: 0 1\nmodel:\nface: 1\n",
            "an instance needs exactly one of a matrix, a lattice, or a model",
        ),
        ("model:\nface: 1\n", "model block has no dims"),
    ],
)
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError) as exc:
        cli.parse_instance_text(text)
    assert str(exc.value).startswith(message + " (line ")


@pytest.mark.parametrize(
    "text",
    [
        "",
        "cost: 1 2\n",
        "matrix:\n1 2\nlattice:\n3 4\ncost: 1 1\n",
        "1 2 3\n",
        "matrix:\ncost: 1\n",
        "dims: 2 2\n",
        "matrix:\n1 2\nwhatever: 3\n",
        "matrix:\n1 2\ntiebreak: fastest\n",
        "model:\ndims: 2 2\nsense: upward\n",
    ],
)
def test_parse_rejections(text):
    with pytest.raises(ParseError):
        cli.parse_instance_text(text)


def test_gap_coin_text(capsys):
    code, out, _ = run(capsys, "gap", COIN)
    assert code == 0
    assert "gap: 76/15 (~ 5.0666666666)" in out
    assert "winner: component 1 <p^5, n^3>" in out
    assert "witness z: (4, 2, 0, 4)" in out
    assert "witness b: (10, 114)" in out
    assert "value: 5 (~ 5.0000000000)" in out
    assert "value: 4 (~ 4.0000000000)" in out


def test_gap_deterministic_output(capsys):
    _, first, _ = run(capsys, "gap", COIN)
    _, second, _ = run(capsys, "gap", COIN)
    assert canonical(first) == canonical(second)
    assert any(l.startswith("# elapsed") for l in first.splitlines())


def test_gap_json_round_trip(capsys):
    code, out, _ = run(capsys, "gap", COIN, "--format", "json")
    assert code == 0
    data = json.loads(canonical(out))
    assert Fraction(data["gap"]) == Fraction(76, 15)
    assert data["gap_decimal"] == "5.0666666666"
    assert {Fraction(c["value"]) for c in data["components"]} == {
        Fraction(76, 15),
        Fraction(4),
        Fraction(5),
    }
    assert data["witness_b"] == [10, 114]

    def rationals(node):
        if isinstance(node, dict):
            for k, v in node.items():
                if not k.endswith("_decimal"):
                    yield from rationals(v)
        elif isinstance(node, list):
            for v in node:
                yield from rationals(v)
        elif isinstance(node, str) and node[:1] in "-0123456789":
            yield node

    for s in rationals(data):
        assert str(Fraction(s)) == s


def test_format_choices_are_text_and_json():
    parser = cli._parser()
    for cmd in cli.COMMANDS:
        for fmt in ("text", "json"):
            assert parser.parse_args([cmd, COIN, "--format", fmt]).format == fmt
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([cmd, COIN, "--format", "json-like-structured"])
        assert exc.value.code == 2


def test_parser_is_built_once_and_keeps_no_state():
    parser = cli._parser()
    assert cli._parser() is parser
    first = parser.parse_args(["oracle", COIN, "--box", "3", "--sense", "min", "--verify"])
    again = parser.parse_args(["oracle", COIN])
    assert (first.box, first.sense, first.verify) == ((3,), "min", True)
    assert (again.box, again.sense, again.verify) == (None, None, False)


def test_decompose_coin(capsys):
    code, out, _ = run(capsys, "decompose", COIN)
    assert code == 0
    assert "minimal generators: 4" in out
    assert "components: 3" in out
    assert "<p^5, n^3>" in out
    assert "<n^6, d^4, q>" in out
    assert "<n^3, q^3>" in out


def test_decompose_lattice_family(capsys):
    code, out, _ = run(capsys, "decompose", LATTICE_R5)
    assert code == 0
    assert "components: 5" in out
    assert "<x1, x2, x3^3>" in out
    assert "<x1^3, x2^8, x3>" in out


def test_gb_coin(capsys):
    code, out, _ = run(capsys, "gb", COIN)
    assert code == 0
    assert "groebner elements: 4" in out
    assert "n^3 q - d^4" in out
    assert "n^6 - p^5 q" in out
    assert "n^3 d^4 - p^5 q^2" in out
    assert "p^5 q^3 - d^8" in out


def test_witness_coin(capsys):
    code, out, _ = run(capsys, "witness", COIN)
    assert code == 0
    assert "integer optimum: (4, 2, 0, 4) with value 6" in out
    assert "relaxation value: 14/15" in out
    assert "difference: 76/15" in out


def test_witness_solves_the_witness_program_once(capsys, monkeypatch):
    # gap_report verifies IP(z) and LP(z) at the witness, and the report
    # lines read those values instead of solving both again
    calls = []
    ip_optimum = gapcore.ip_optimum

    def counted(*args):
        calls.append(args)
        return ip_optimum(*args)

    monkeypatch.setattr(gapcore, "ip_optimum", counted)
    code, out, _ = run(capsys, "witness", K4)
    assert code == 0
    assert "integer optimum: (0, 1, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1) with value 0" in out
    assert "difference: 5/3" in out
    assert len(calls) == 1


def test_margins_k4(capsys):
    code, out, _ = run(capsys, "margins", K4)
    assert code == 0
    assert "margin matrix: 24 x 16, rank 11" in out
    rows = [l for l in canonical(out).splitlines()[1:] if l]
    assert len(rows) == 24
    assert rows[0] == "1 1 1 1 0 0 0 0 0 0 0 0 0 0 0 0"


def test_margins_needs_model(capsys):
    code, _, err = run(capsys, "margins", COIN)
    assert code == 2
    assert "model" in err


def test_oracle_verify_matching_box(capsys):
    code, out, _ = run(
        capsys, "oracle", COIN, "--box", "4,2,0,4", "--verify"
    )
    assert code == 0
    assert "oracle gap: 76/15" in out
    assert "attained at z: (4, 2, 0, 4)" in out
    assert "matches the computed gap" in out


def test_oracle_small_box_reports_shortfall(capsys):
    code, out, _ = run(capsys, "oracle", COIN, "--box", "1", "--verify")
    assert code == 0
    assert "below the computed gap" in out
    assert "box too small" in out


def test_only_reports_that_print_it_compute_the_schrijver_bound(capsys, monkeypatch):
    # witness and oracle --verify print no bound, so they walk no minors;
    # gap prints it and walks them once
    calls = []
    walk = gapcore._max_minor

    def counted(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(gapcore, "_max_minor", counted)
    assert run(capsys, "witness", COIN)[0] == 0
    assert run(capsys, "oracle", COIN, "--box", "1", "--verify")[0] == 0
    assert calls == []
    code, out, _ = run(capsys, "gap", COIN)
    assert code == 0 and "schrijver bound: 192" in out
    assert len(calls) == 1


def test_gap_notes_a_bound_past_the_minor_cap(capsys, monkeypatch):
    # coin's sweep holds 4 minors at its first level; under a cap of 3 the
    # text report has a '#' note where the bound was, and JSON a null
    # bound with the reason
    reason = (
        "schrijver bound: the maximal-minor sweep holds 4 minors at level 1 of 2,"
        " over the cap of 3"
    )
    golden = (ROOT / "tests" / "golden" / "gap_coin.txt").read_text().splitlines()
    monkeypatch.setattr(exactmath, "MINOR_SWEEP_CAP", 3)
    code, out, _ = run(capsys, "gap", COIN)
    assert code == 0
    assert f"# {reason}" in out.splitlines()
    assert canonical(out).splitlines() == [l for l in golden if l != "schrijver bound: 192"]
    code, out, _ = run(capsys, "gap", COIN, "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert (data["schrijver_bound"], data["schrijver_bound_reason"]) == (None, reason)


def test_oracle_verify_mismatch_exits_3(capsys, monkeypatch):
    fake = types.SimpleNamespace(gap=Fraction(0))
    monkeypatch.setattr(cli, "gap_report", lambda inst: fake)
    code, _, err = run(capsys, "oracle", COIN, "--box", "4,2,0,4", "--verify")
    assert code == 3
    assert "above the computed gap" in err


def test_fan_coin(capsys):
    code, out, _ = run(capsys, "fan", COIN, "--format", "json")
    assert code == 0
    data = json.loads(canonical(out))
    assert len(data["cones"]) == 7
    assert data["pieces_total"] == 8
    split = [c for c in data["cones"] if len(c["pieces"]) == 2]
    assert len(split) == 1
    f1, f2 = (
        tuple(Fraction(x) for x in p["linear_form"]) for p in split[0]["pieces"]
    )
    diff = tuple(a - b for a, b in zip(f1, f2))
    reference = (305, -135, -308, 138)
    ratio = diff[0] / reference[0]
    assert ratio > 0
    assert all(d == ratio * r for d, r in zip(diff, reference))


def test_fan_seed_file(capsys, tmp_path):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("0 1 0 1\n1 2 3 4   # second seed\n")
    code, out, _ = run(capsys, "fan", COIN, "--seeds", str(seeds))
    assert code == 0
    assert "seeds: 2" in out
    assert "cones discovered: 7" in out


def test_fan_seed_of_wrong_length_exits_2(capsys, tmp_path):
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("0 1 0\n")
    code, out, err = run(capsys, "fan", COIN, "--seeds", str(seeds))
    assert code == 2 and not out
    assert "cost length does not match" in err


def test_model_gap_small(capsys, tmp_path):
    inst = tmp_path / "rows.txt"
    inst.write_text("model:\ndims: 2 3\nface: 1\nface: 2\n")
    code, out, _ = run(capsys, "gap", str(inst))
    assert code == 0
    assert "gap: 0 (~ 0.0000000000)" in out
    assert "witness b: (0, 0, 0, 0, 0)" in out


@pytest.mark.slow
def test_model_gap_k4(capsys):
    code, out, _ = run(capsys, "gap", K4)
    assert code == 0
    assert "gap: 5/3 (~ 1.6666666666)" in out
    assert "components: 139" in out


def test_unbounded_cost_exits_1(capsys, tmp_path):
    inst = tmp_path / "unbounded.txt"
    inst.write_text("matrix:\n1 -1\ncost: -1 0\n")
    code, _, err = run(capsys, "gap", str(inst))
    assert code == 1
    assert "unbounded" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "gap", "/nonexistent/instance.txt")
    assert code == 2
    assert "cannot read" in err


def test_non_utf8_instance_exits_2(capsys, tmp_path):
    inst = tmp_path / "latin1.txt"
    inst.write_bytes(b"\xffmatrix:\n1 2\ncost: 1 0\n")
    code, _, err = run(capsys, "gap", str(inst))
    assert code == 2
    assert "not UTF-8" in err


def test_non_utf8_seed_file_exits_2(capsys, tmp_path):
    seeds = tmp_path / "seeds.txt"
    seeds.write_bytes(b"0 1 0 1\n\xff\n")
    code, _, err = run(capsys, "fan", COIN, "--seeds", str(seeds))
    assert code == 2
    assert "not UTF-8" in err


def test_python_dash_m_runs_the_cli(capsys):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "ipgap", "gap", COIN],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    _, out, _ = run(capsys, "gap", COIN)
    assert canonical(proc.stdout) == canonical(out)


def test_name_count_mismatch_exits_2(capsys, tmp_path):
    inst = tmp_path / "names.txt"
    inst.write_text("matrix:\n1 1\ncost: 0 1\nnames: only_one\n")
    code, _, err = run(capsys, "gap", str(inst))
    assert code == 2
    assert "names" in err


def test_box_validation(capsys):
    code, _, err = run(capsys, "oracle", COIN, "--box", "1,2")
    assert code == 2
    assert "box" in err
    code, _, err = run(capsys, "oracle", COIN, "--box", "-1")
    assert code == 2
    assert "nonnegative" in err
    code, _, err = run(capsys, "oracle", K4)
    assert code == 2


def test_fan_budget_zero_in_file_acts_like_the_flag(capsys, tmp_path):
    inst = tmp_path / "coin0.txt"
    inst.write_text((DEMOS / "coin.txt").read_text() + "budget: 0\n")
    code, from_file, _ = run(capsys, "fan", str(inst))
    assert code == 0
    assert "cones discovered: 1" in from_file
    code, from_flag, _ = run(capsys, "fan", COIN, "--budget", "0")
    assert code == 0
    assert canonical(from_file) == canonical(from_flag)


def test_negative_budget_in_file_is_a_parse_error(capsys, tmp_path):
    text = "matrix:\n1 5\ncost: 1 0\nbudget:  -3\n"
    with pytest.raises(ParseError) as exc:
        cli.parse_instance_text(text)
    assert (exc.value.line, exc.value.column) == (4, 10)
    inst = tmp_path / "negative.txt"
    inst.write_text(text)
    code, out, err = run(capsys, "fan", str(inst))
    assert code == 2 and not out
    assert "line 4, column 10" in err


def test_negative_budget_flag_exits_2(capsys):
    code, out, err = run(capsys, "fan", COIN, "--budget", "-1")
    assert code == 2 and not out
    assert "budget" in err


@pytest.mark.parametrize(
    "text, line",
    [
        # a model's cost is its entry bound, so a cost row would be
        # printed in the report header but never used
        ("model:\ndims: 2 2\nface: 1\nface: 2\ncost: 5 5 5 5\n", 5),
        ("cost: 1 1 1 1\nmodel:\ndims: 2 2\nface: 1\nface: 2\n", 1),
        # sense only chooses a model's entry bound
        ("matrix:\n1 5\ncost: 1 0\nsense: min\n", 4),
        ("lattice:\n5 4\n5 6\nsense: max\ncost: 1 1\n", 4),
    ],
)
def test_fields_the_source_ignores_are_rejected(capsys, tmp_path, text, line):
    with pytest.raises(ParseError) as exc:
        cli.parse_instance_text(text)
    assert (exc.value.line, exc.value.column) == (line, 1)
    inst = tmp_path / "ignored.txt"
    inst.write_text(text)
    code, out, err = run(capsys, "gap", str(inst))
    assert code == 2 and not out
    assert f"line {line}, column 1" in err


@pytest.mark.parametrize(
    "text, field",
    [
        # the fan walk orders every cone by one cost row under grevlex
        ("matrix:\n1 5 7\ncost: 1 0 0\ntiebreak: lex\n", "tiebreak"),
        ("matrix:\n1 5 7\ncost: 1 0 0\ncost: 0 1 0\n", "cost"),
    ],
)
def test_fan_rejects_fields_its_walk_ignores(capsys, tmp_path, text, field):
    inst = tmp_path / "ignored.txt"
    inst.write_text(text)
    code, out, err = run(capsys, "fan", str(inst))
    assert code == 2 and not out
    assert f"the {field} field" in err


@pytest.mark.parametrize("cmd", ["gap", "decompose", "gb", "witness", "fan"])
def test_json_stdout_is_one_document(capsys, cmd):
    code, out, err = run(capsys, cmd, COIN, "--format", "json")
    assert code == 0
    json.loads(out)
    assert err.startswith("# elapsed")


@pytest.mark.parametrize("cmd", ["gap", "decompose", "gb", "witness", "oracle"])
def test_sense_flag_outside_a_model_exits_2(capsys, cmd):
    # --sense, like the sense field, only chooses a model's entry bound
    box = ("--box", "2") if cmd == "oracle" else ()
    code, out, err = run(capsys, cmd, COIN, *box, "--sense", "min")
    assert code == 2 and not out
    assert "--sense" in err


NO_COST = "matrix:\n1 1 1\n"
FILE = "<written file>"


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (("gap", FILE), "face: 1 2\nmodel:\ndims: 2 2\n", "face belongs inside a model block"),
        (("gap", FILE), "lattice:\ncost: 1 1\n", "lattice block has no rows"),
        (("gap", FILE), NO_COST, "matrix and lattice instances need a cost field"),
        (("oracle", FILE, "--box", "1"), NO_COST, "matrix instances need a cost field"),
        (("oracle", LATTICE_R5, "--box", "1"), None, "the oracle needs a matrix or model"),
        (("fan", K4), None, "the fan exploration needs a matrix instance"),
        (("fan", LATTICE_R5), None, "the fan exploration needs a matrix instance"),
        (("fan", FILE), NO_COST, "fan needs a cost field or a --seeds file"),
        (("fan", COIN, "--seeds", FILE), "# only a comment\n", "no seed costs in"),
        # a seed file's columns count the line's leading blanks
        (
            ("fan", COIN, "--seeds", FILE),
            "0 1 0 1\n   1 x 0 1\n",
            "expected a rational, got 'x' (line 2, column 6)",
        ),
    ],
)
def test_input_errors_exit_2(capsys, tmp_path, argv, text, message):
    # FILE stands for a file holding text: an instance, or a seed file
    path = tmp_path / "input.txt"
    if text is not None:
        path.write_text(text)
    code, out, err = run(capsys, *(str(path) if x == FILE else x for x in argv))
    assert code == 2 and not out
    assert err.startswith(f"error: {message}")


def test_gap_zero_report_names_no_winner(capsys, tmp_path):
    inst = tmp_path / "flat.txt"
    inst.write_text("matrix:\n1 1\ncost: 0 0\n")
    code, out, _ = run(capsys, "gap", str(inst))
    assert code == 0
    assert "gap: 0 (~ 0.0000000000)" in out
    assert "winner: none (non-optimal ideal is zero)" in out
    code, out, _ = run(capsys, "gap", str(inst), "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["gap"] == "0" and data["winner"] is None
