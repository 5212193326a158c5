"""The package source stays within a fixed line budget.

The budget is the total of ``wc -l src/rigidity/*.py``.  A change that needs
more lines pays for them by removing others; raising ``SRC_LINE_BUDGET``
changes a check, so the raise and its reason belong in CHANGES.md.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rigidity"
SRC_LINE_BUDGET = 2372


def test_src_lines_within_budget():
    lines = {p.name: p.read_bytes().count(b"\n") for p in sorted(SRC.glob("*.py"))}
    total = sum(lines.values())
    assert total <= SRC_LINE_BUDGET, f"src/rigidity has {total} lines: {lines}"
