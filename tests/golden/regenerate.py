"""Golden corpus of CLI runs: the shared runner, and a script that rewrites it.

Each directory under ``cases/`` is one case.  ``argv.json`` holds the
argument list and ``in/`` (optional) the input files it names.  A run
copies ``in/`` into an empty working directory, calls ``rigidity.cli.main``
there and records the exit code, stdout, stderr and every file the run
created.  The expected record lives in ``expected/``, byte for byte; a file
over ``HASH_ABOVE`` bytes is stored as its SHA-256 in
``expected/sha256.json`` instead.  ``tests/test_golden.py`` compares every
case against it.

Rewrite every case, or the named ones, from the repository root with

    PYTHONPATH=src python tests/golden/regenerate.py [case ...]

A rewrite changes a check: review the diff and record why in CHANGES.md.
With ``--check`` nothing is written: each case whose run differs from its
record is listed with a unified diff of every differing text record, or
the two SHA-256 digests of a hashed one, and the script exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from unittest import mock

CASES = Path(__file__).resolve().parent / "cases"
HASH_ABOVE = 32 * 1024
MANIFEST = "sha256.json"
# argparse wraps its usage text to the terminal width, read from COLUMNS
COLUMNS = "80"


def case_names() -> list:
    return sorted(p.name for p in CASES.iterdir() if (p / "argv.json").is_file())


def stage(case: Path, workdir: Path) -> list:
    """Copy the case's inputs into workdir and return its argv."""
    if (case / "in").is_dir():
        shutil.copytree(case / "in", workdir, dirs_exist_ok=True)
    return json.loads((case / "argv.json").read_text())


def record(case: Path, workdir: Path, code: int, out: str, err: str) -> dict:
    """The run as stored: {name: bytes, or the hex SHA-256 of a large file}.

    Names are ``exit_code``, ``stdout``, ``stderr`` and ``files/<path>``
    for every file in workdir that is not one of the case's inputs.
    """
    inputs = case / "in"
    rec = {"exit_code": f"{code}\n".encode(), "stdout": out.encode(), "stderr": err.encode()}
    for path in sorted(workdir.rglob("*")):
        rel = path.relative_to(workdir)
        if path.is_file() and not (inputs / rel).is_file():
            rec[f"files/{rel.as_posix()}"] = path.read_bytes()
    return {name: data if len(data) <= HASH_ABOVE else hashlib.sha256(data).hexdigest()
            for name, data in rec.items()}


def expected(case: Path) -> dict:
    """The stored record of a case, in the form ``record`` returns."""
    root = case / "expected"
    out = {}
    for path in root.rglob("*"):
        name = path.relative_to(root).as_posix()
        if path.is_file() and name != MANIFEST:
            out[name] = path.read_bytes()
    if (root / MANIFEST).is_file():
        out.update(json.loads((root / MANIFEST).read_text()))
    return out


def write_expected(case: Path, rec: dict) -> None:
    root = case / "expected"
    shutil.rmtree(root, ignore_errors=True)
    hashes = {}
    for name, data in rec.items():
        if isinstance(data, str):
            hashes[name] = data
            continue
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    if hashes:
        (root / MANIFEST).write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")


def _digest(data) -> str:
    if data is None:
        return "(no record)"
    return data if isinstance(data, str) else hashlib.sha256(data).hexdigest()


def differences(want: dict, got: dict) -> list:
    """Lines naming every record where the run ``got`` differs from the
    stored ``want``: a unified diff of two texts, else the two digests."""
    lines = []
    for name in sorted(want.keys() | got.keys()):
        old, new = want.get(name), got.get(name)
        if old == new:
            continue
        diff = []
        if isinstance(old, bytes) and isinstance(new, bytes):
            diff = list(difflib.unified_diff(
                old.decode(errors="replace").splitlines(), new.decode(errors="replace").splitlines(),
                f"expected/{name}", f"run/{name}", lineterm=""))
        # texts that differ only in their line ends give no diff lines
        lines += diff or [f"{name}: expected {_digest(old)}, run {_digest(new)}"]
    return lines


def run(case: Path, workdir: Path) -> dict:
    from rigidity.cli import main

    argv = stage(case, workdir)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with mock.patch.dict(os.environ, COLUMNS=COLUMNS), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return record(case, workdir, code, out.getvalue(), err.getvalue())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Rewrite the golden cases, all or the named ones.")
    ap.add_argument("--check", action="store_true",
                    help="write nothing; list each case whose run differs, exit 1 if any does")
    ap.add_argument("cases", nargs="*", help="case names (default: every case)")
    args = ap.parse_args(argv)
    status = 0
    for name in args.cases or case_names():
        with tempfile.TemporaryDirectory() as tmp:
            rec = run(CASES / name, Path(tmp))
        if not args.check:
            write_expected(CASES / name, rec)
            print(f"rewrote {name}")
        elif diff := differences(expected(CASES / name), rec):
            status = 1
            print(f"{name} differs", *diff, sep="\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
