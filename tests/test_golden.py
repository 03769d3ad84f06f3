"""Canonical reports of the demo instances, pinned byte for byte.

The files under golden/ are the text and JSON reports of `ipgap <command>
demos/<instance>.txt` with advisory '#' lines removed.  Any refactor must
reproduce them exactly; only a deliberate change to a report regenerates
them, one file at a time, as in

    ipgap gap demos/coin.txt --format json | grep -v '^#' > tests/golden/gap_coin.json

Cases listed in FLAGS run with those extra flags; the oracle reports pin
the box scan, the coin one at the file's own box.
"""

import json
from pathlib import Path

import pytest

from ipgap import cli

ROOT = Path(__file__).resolve().parent
DEMOS = ROOT.parent / "demos"
GOLDEN = ROOT / "golden"

CASES = [
    (cmd, demo)
    for demo in ("coin", "lattice_r5", "k4", "tied", "knapsack")
    for cmd in ("gap", "decompose", "gb", "witness")
] + [("fan", "coin"), ("fan", "knapsack"), ("margins", "k4")] + [
    ("oracle", demo) for demo in ("coin", "knapsack", "tied")
]
FLAGS = {("oracle", "knapsack"): ["--box", "4"], ("oracle", "tied"): ["--box", "4"]}


@pytest.mark.parametrize("cmd, demo", CASES)
def test_report_matches_golden(cmd, demo):
    path = str(DEMOS / f"{demo}.txt")
    args = cli._parser().parse_args([cmd, path, *FLAGS.get((cmd, demo), [])])
    lines, data = cli.COMMANDS[cmd](cli.load_instance(path), args)
    text = "\n".join(lines) + "\n"
    assert text == (GOLDEN / f"{cmd}_{demo}.txt").read_text()
    assert json.dumps(data, indent=2) + "\n" == (GOLDEN / f"{cmd}_{demo}.json").read_text()


def test_every_command_has_a_golden():
    assert {cmd for cmd, _ in CASES} == set(cli.COMMANDS)
