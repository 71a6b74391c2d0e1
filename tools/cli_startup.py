"""Time each CLI subcommand from a cold start, in fresh interpreters.

    python3 tools/cli_startup.py [--runs N]

Every run starts a new Python process that imports ``spanner_forge.cli``
from the checkout this file belongs to, runs one command through
``cli.main`` and reports whether any ``scipy`` module was loaded when it
returned.  The wall time is taken around the whole process, interpreter
start-up included, so it is what a shell user waits for one command.
The commands run in a temporary directory on a fixed instance (uniform
random, n = 300, d = 2, generator seed 1, eps = 0.1).  Before any
timed run, ``generate`` writes the instance and ``build-greedy`` the
edge list that the other commands read, also as the witness.  The
table gives, per command in ``COMMANDS``, the median and range of N
runs, the exit codes and whether scipy was loaded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# name -> CLI arguments; the inputs come from the first two
COMMANDS = {
    "generate": "generate --family random --n 300 --seed 1 --out m.txt",
    "build-greedy": "build --builder greedy --eps 0.1 --in m.txt --out g.edges",
    "build-net-tree": "build --builder net-tree --eps 0.1 --in m.txt --out t.edges",
    "build-witness": "build --builder witness --eps 0.1 --in m.txt --witness g.edges"
                     " --out w.edges",
    "build-prune": "build --builder prune --eps 0.1 --in m.txt --out p.edges",
    "verify": "verify --in m.txt --edges g.edges --t 1.1",
    "compare": "compare --in m.txt --eps 0.1 --builders greedy,net-tree",
    "sweep": "sweep --family random --n 300 --seed 1 --eps-list 0.2,0.1"
             " --builders greedy,net-tree",
}

# run in the child: argv[1] is the source directory, the rest the CLI's
# arguments; the last line of stdout is the exit code and the scipy flag
_CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from spanner_forge import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[2:])
scipy = any(name.split(".")[0] == "scipy" for name in sys.modules)
print(json.dumps({"exit": code, "scipy": scipy}))
"""


def run_once(args: list, cwd: Path) -> dict:
    """Wall time, exit code and scipy flag of one fresh-interpreter run."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(SRC), *args], cwd=cwd,
                          capture_output=True, text=True, check=True)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, **json.loads(proc.stdout.splitlines()[-1])}


def measure(names: list, runs: int, cwd: Path) -> list:
    """One row per command: the median, the range and the scipy flag."""
    for name in ("generate", "build-greedy"):  # the inputs, untimed
        run_once(COMMANDS[name].split(), cwd)
    rows = []
    for name in names:
        got = [run_once(COMMANDS[name].split(), cwd) for _ in range(runs)]
        walls = [g["wall_s"] for g in got]
        rows.append({
            "command": name,
            "median_s": statistics.median(walls),
            "min_s": min(walls),
            "max_s": max(walls),
            "exit": sorted({g["exit"] for g in got}),
            "scipy": sorted({g["scipy"] for g in got}),
        })
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Cold-start wall time of each CLI subcommand.")
    ap.add_argument("--runs", type=int, default=5, help="fresh-interpreter runs per command")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        rows = measure(list(COMMANDS), args.runs, Path(tmp))
    print(f"| command | median s (min-max), {args.runs} runs | exit | scipy loaded |")
    print("|---|---|---|---|")
    for r in rows:
        exits = ",".join(map(str, r["exit"]))
        scipy = ",".join("yes" if s else "no" for s in r["scipy"])
        print(f"| {r['command']} | {r['median_s']:.2f} ({r['min_s']:.2f}-{r['max_s']:.2f}) "
              f"| {exits} | {scipy} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
