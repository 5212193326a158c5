"""The package source stays within a fixed line budget, and the budget
follows the source down.

The budget is the total of ``wc -l src/rigidity/*.py``.  A change that needs
more lines pays for them by removing others; raising ``SRC_LINE_BUDGET``
changes a check, so the raise and its reason belong in CHANGES.md.  A change
that removes lines lowers the budget to the new total, so that later changes
cannot spend what this one saved without saying so.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rigidity"
SRC_LINE_BUDGET = 2366


def _lines() -> dict:
    return {p.name: p.read_bytes().count(b"\n") for p in sorted(SRC.glob("*.py"))}


def test_src_lines_within_budget():
    lines = _lines()
    total = sum(lines.values())
    assert total <= SRC_LINE_BUDGET, f"src/rigidity has {total} lines: {lines}"


def test_budget_is_the_current_total():
    total = sum(_lines().values())
    assert SRC_LINE_BUDGET <= total, (
        f"src/rigidity has {total} lines, under the budget of {SRC_LINE_BUDGET}: "
        f"lower SRC_LINE_BUDGET to {total}")
