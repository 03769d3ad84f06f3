"""The walkthrough demo runs against the public API as exported."""

import runpy
import sys
from pathlib import Path

WALKTHROUGH = Path(__file__).resolve().parent.parent / "demos" / "walkthrough.py"


def test_walkthrough_runs(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [str(WALKTHROUGH)])
    runpy.run_path(str(WALKTHROUGH), run_name="__main__")
    out = capsys.readouterr().out
    assert "gap = 76/15" in out
    assert "brute-force scan agrees: 76/15 at z = (4, 2, 0, 4)" in out
    assert "family r=8:" in out
