"""Golden corpus: every CLI case reproduces its stored outputs byte for byte.

The cases and their runner live in ``tests/golden``; see its
``regenerate.py`` for the layout and for how to rewrite the expected
outputs after a deliberate change.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
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


def run_check(*names):
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run([sys.executable, "-B", str(Path(golden.__file__)), "--check", *names],
                          capture_output=True, text=True, env={"PYTHONPATH": str(src)}, timeout=120)


def test_check_passes_real_cases():
    proc = run_check("classify_n1", "witness_signed_zeros")
    assert (proc.returncode, proc.stdout) == (0, ""), proc.stderr


def test_check_names_each_tampered_record(tmp_path, monkeypatch, capsys):
    for name in ("classify_n1", "witness_seven"):
        shutil.copytree(golden.CASES / name, tmp_path / name)
    monkeypatch.setattr(golden, "CASES", tmp_path)
    stdout = tmp_path / "classify_n1" / "expected" / "stdout"
    stdout.write_text(stdout.read_text().replace("Excluded", "NotExcluded"))
    manifest = tmp_path / "witness_seven" / "expected" / golden.MANIFEST
    hashes = json.loads(manifest.read_text())
    real = hashes["files/w.csv"]
    hashes["files/w.csv"] = "0" * 64
    manifest.write_text(json.dumps(hashes))
    before = sorted(p.read_bytes() for p in tmp_path.rglob("*") if p.is_file())

    assert golden.main(["--check"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:4] == ["classify_n1 differs", "--- expected/stdout", "+++ run/stdout", "@@ -1 +1 @@"]
    assert out[4].startswith("-NotExcluded") and out[5].startswith("+Excluded")
    assert out[6:] == ["witness_seven differs", f"files/w.csv: expected {'0' * 64}, run {real}"]
    assert sorted(p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()) == before
