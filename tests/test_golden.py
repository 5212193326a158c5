"""Golden corpus: every CLI case reproduces its stored outputs byte for byte.

The cases and their runner live in ``tests/golden``; see its
``regenerate.py`` for the layout and for how to rewrite the expected
outputs after a deliberate change.
"""

import importlib.util
from pathlib import Path

import pytest

from rigidity.cli import main

_spec = importlib.util.spec_from_file_location(
    "golden_regenerate", Path(__file__).parent / "golden" / "regenerate.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.mark.parametrize("name", golden.case_names())
def test_golden_case(name, tmp_path, monkeypatch, capsys):
    case = golden.CASES / name
    argv = golden.stage(case, tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", golden.COLUMNS)
    code = main(argv)
    out, err = capsys.readouterr()
    assert golden.record(case, tmp_path, code, out, err) == golden.expected(case)
