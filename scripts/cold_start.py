#!/usr/bin/env python3
"""Time cold CLI processes phase by phase: the import, ``main`` and the exit.

Three commands run in ``--runs`` fresh interpreters each, taking turns:
``python -c pass``, ``classify --alpha -1 --d 5`` and ``bound`` on seven
points.  A CLI run is a small ``-c`` program that stamps
``time.perf_counter`` around ``import rigidity.cli`` and when ``main``
returns, and prints the stamps last; this process stamps the start and the
return of its ``wait``.  On Linux ``perf_counter`` is the system-wide
monotonic clock, so stamps from different processes compare.  Printed per
command, as medians in ms: the total wall time, the import, ``main``, and
the exit, from ``main``'s return to the ``wait``.  ``stage_timing.py`` runs
in process and cannot see the exit.

    python3 scripts/cold_start.py [--runs 21]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SEVEN = json.dumps({"type": "finite", "points": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6]})
# None runs ``python -c pass``
COMMANDS = {
    "pass": None,
    "classify": ["classify", "--alpha", "-1", "--d", "5"],
    "bound": ["bound", "--set", SEVEN, "--d", "5", "--out", "report.json"],
}
CHILD = """import sys, time
t0 = time.perf_counter()
import rigidity.cli
t1 = time.perf_counter()
code = rigidity.cli.main(sys.argv[1:])
print(t0, t1, time.perf_counter())
raise SystemExit(code)
"""


def run(argv, cwd, env):
    """(total, import, main, exit) seconds of one fresh process, the phases None for ``pass``."""
    cmd = [sys.executable, "-B", "-c", "pass" if argv is None else CHILD, *(argv or [])]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    end = time.perf_counter()
    if proc.returncode != 0:
        raise SystemExit(f"{argv} exited {proc.returncode}:\n{proc.stderr}")
    if argv is None:
        return end - start, None, None, None
    t0, t1, t2 = map(float, proc.stdout.splitlines()[-1].split())
    return end - start, t1 - t0, t2 - t1, end - t2


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=21, help="fresh processes per command")
    args = ap.parse_args()
    if args.runs < 1:
        ap.error("--runs must be positive")

    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    runs = {name: [] for name in COMMANDS}
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(args.runs):
            for name, argv in COMMANDS.items():
                runs[name].append(run(argv, tmp, env))

    print(f"{'command':<10} {'runs':>5} {'total_ms':>9} {'import_ms':>9} {'main_ms':>9}"
          f" {'exit_ms':>9}")
    for name, rows in runs.items():
        cells = "".join(" {:>9}".format("-" if phase[0] is None else
                                         f"{1e3 * statistics.median(phase):.1f}")
                        for phase in zip(*rows))
        print(f"{name:<10} {len(rows):>5}{cells}")


if __name__ == "__main__":
    main()
