"""Run a fixed matrix of CLI commands and keep every output for diffing.

    python3 tools/cli_outputs.py DIR

The commands cover all five subcommands, every builder, JSON and CSV
reports, ``--x-list``, ``--copies`` (with and without a witness to
tile) and ``--gnuplot``, a net tree of 300 points at eps = 0.1, the
verification of a dense net tree, and a few inputs the CLI rejects.
They run in ``DIR``, which must be empty or absent, with the
``spanner_forge`` of the checkout this file belongs to.  ``DIR/runs.txt``
lists each command with its exit code, stdout and stderr; each ``MATRIX``
entry holds the code its command is expected to exit with, and ``FILES``
the inputs written before the first command.
Every JSON file loses its ``timestamp``, and its ``config`` moves to
``<file>.config.json``, so that

    diff -r PARENT_DIR CHANGE_DIR

of two checkouts' directories separates what a change does to outputs
from what it does to the recorded configurations.  To run the matrix at
an older checkout, copy this file into its ``tools/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spanner_forge import cli  # noqa: E402

# (exit code, command): a pruned row above 1 + eps or a failed
# verification exits 1, a rejected input 2
MATRIX = (
    (0, "generate --family random --n 30 --seed 1 --out r.txt"),
    (0, "generate --family random --n 20 --d 3 --seed 2 --distribution clustered --out k.txt"),
    (0, "generate --family random --n 20 --d 3 --seed 2 --distribution clustered --copies 2"
        " --out c.txt"),
    (0, "generate --family sparsity-lb --eps 0.02 --out s.txt"),
    (0, "generate --family lightness-lb-x --eps 0.02 --x 2.5 --out l.txt"),
    (0, "generate --family sparsity-lb-x --eps 2.5e-05 --x 2 --out sx.txt"),
    (0, "generate --family random --n 100 --d 3 --seed 3 --out b.txt"),
    (0, "generate --family random --n 300 --seed 1 --out m.txt"),
    (0, "build --builder greedy --eps 0.5 --in r.txt --out r.greedy.edges"),
    (0, "build --builder net-tree --eps 0.5 --in r.txt --out r.net-tree.edges"),
    (0, "build --builder prune --eps 0.3 --kappa 20 --in r.txt --out r.prune.edges"),
    (0, "build --builder witness --eps 0.02 --in s.txt --out s.witness.edges"),
    (0, "build --builder net-tree --eps 0.5 --in b.txt --out b.net-tree.edges"),
    (0, "build --builder net-tree --eps 0.1 --in m.txt --out m.net-tree.edges"),
    (0, "verify --in r.txt --edges r.greedy.edges --t 1.5 --out v.json"),
    # a net tree holding more than half of all pairs: the screened verification
    (0, "verify --in b.txt --edges b.net-tree.edges --t 1.5 --out bv.json"),
    (1, "verify --in r.txt --edges r.greedy.edges --t 1.0000001"),
    (0, "compare --in s.txt --eps 0.02 --builders greedy,witness,prune,net-tree --out s.cmp.json"),
    (1, "compare --in k.txt --eps 0.3 --builders greedy,prune --kappa 10000 --out k.cmp.json"),
    (0, "compare --in c.txt --eps 0.3 --x 2 --builders greedy,net-tree --out c.cmp.csv"),
    (0, "compare --in l.txt --eps 0.02 --x 2.5 --builders witness,greedy --out l.cmp.json"),
    (1, "compare --in l.txt --eps 0.02 --k 2 --builders prune --out l.prune.json"),
    (0, "compare --in sx.txt --eps 2.5e-05 --x 2 --builders witness,greedy --out sx.cmp.json"),
    (0, "sweep --family lightness-lb --eps-list 0.04,0.02 --out sw.csv --gnuplot sw.gp"
        " --summary-out sw.json"),
    (0, "sweep --family lightness-lb-x --eps-list 0.02,0.01 --x-list 2,2.5 --out swx.csv"
        " --gnuplot swx.gp --summary-out swx.json"),
    (1, "sweep --family random --n 30 --d 3 --distribution clustered --eps-list 0.5,0.3"
        " --builders greedy,net-tree,prune --kappa 20 --out swr.json"),
    (0, "generate --family motivating --eps 0.1 --out mo.txt"),
    # the witness alone is not a full spanner here
    (1, "compare --in mo.txt --eps 0.1 --builders greedy,witness --out mo.cmp.json"),
    # copies of an instance with a witness: the witness is tiled and bridged
    (0, "generate --family sparsity-lb --eps 0.02 --copies 2 --out st.txt"),
    (0, "compare --in st.txt --eps 0.02 --builders greedy,witness --out st.cmp.json"),
    # rejected inputs
    (2, "generate --family sparsity-lb --x 2 --out bad.txt"),
    (2, "generate --family random --n 30 --seed 1 --copies 0 --out bad0.txt"),
    (2, "compare --in r.txt --eps 0.5 --builders greedy,witness --out bad.json"),
    (2, "compare --in r.txt --eps 0.5 --builders greedy,bogus --out bad.json"),
    (2, "compare --in r.txt --eps 0.3 --builders prune --config p.cfg --out bad.json"),
    (2, "compare --in r.txt --eps 0.3 --builders prune --alpha none --out bad.json"),
    (2, "sweep --family random --n 20 --eps-list 0.5 --out bad.csv"),
    (2, "sweep --family lightness-lb --eps-list 0.02 --x-list 2 --out bad.csv"),
    (2, "sweep --family lightness-lb --eps-list 0.04,0.02 --out bad.json --gnuplot bad.gp"),
    (2, "verify --in r.txt --edges r.greedy.edges --t 1.5 --out bad.csv"),
    (2, "sweep --family lightness-lb --eps-list 0.04,0.02 --summary-out bad.csv"),
    (2, "compare --in r.txt --eps 0.3 --builders greedy,prune --k -1 --out bad.json"),
    # a one-point instance: normalization needs two points
    (2, "compare --in one.txt --eps 0.1 --builders greedy --out bad.json"),
)

# Input files no command can write, put into the directory before the matrix runs.
FILES = {"one.txt": "2 1\n0 0\n"}


def run(argv: list) -> tuple:
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps its usage to the terminal's width, which would then differ between runs
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), contextlib.redirect_stdout(
            out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's rejections
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def split_configs(directory: Path) -> None:
    """Drop each JSON report's timestamp and move its config to a file of its own."""
    for path in sorted(directory.glob("*.json")):
        doc = json.loads(path.read_text())
        doc.pop("timestamp", None)
        if "config" in doc:
            config = doc.pop("config")
            path.with_name(path.name + ".config.json").write_text(
                json.dumps(config, indent=2, sort_keys=True) + "\n")
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run the CLI matrix and keep its outputs.")
    ap.add_argument("dir", help="output directory, empty or absent")
    directory = Path(ap.parse_args(argv).dir).resolve()
    directory.mkdir(parents=True, exist_ok=True)
    if any(directory.iterdir()):
        print(f"error: {directory} is not empty", file=sys.stderr)
        return 2
    log = []
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for name, text in FILES.items():
            Path(name).write_text(text)
        for _, command in MATRIX:
            code, stdout, stderr = run(command.split())
            log.append(f"$ spanner-forge {command}\nexit {code}\n{stdout}{stderr}")
    finally:
        os.chdir(cwd)
    (directory / "runs.txt").write_text("\n".join(log))
    split_configs(directory)
    return 0


if __name__ == "__main__":
    sys.exit(main())
