"""The walkthrough demo and the README examples run against the public API."""

import doctest
import re
import runpy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WALKTHROUGH = ROOT / "demos" / "walkthrough.py"
README = ROOT / "README.md"


def test_walkthrough_runs(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [str(WALKTHROUGH)])
    runpy.run_path(str(WALKTHROUGH), run_name="__main__")
    out = capsys.readouterr().out
    assert "gap = 76/15" in out
    assert "brute-force scan agrees: 76/15 at z = (4, 2, 0, 4)" in out
    assert "family r=8:" in out


def test_readme_python_examples():
    # each fenced python block is one doctest; the closing fence is not
    # part of it, so it cannot be mistaken for expected output
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert blocks
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner(verbose=False)
    report: list[str] = []
    for i, block in enumerate(blocks, 1):
        test = parser.get_doctest(block, {}, f"README python block {i}", str(README), 0)
        assert test.examples
        runner.run(test, out=report.append)
    assert runner.failures == 0, "".join(report)
