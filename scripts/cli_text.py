#!/usr/bin/env python3
"""Print the text of a fixed set of covnum commands, times masked, so that
the CLI output of two checkouts can be compared with one cmp.

In one process it runs covnum.cli.main on every library group with: exact
(human, records, and records at --max-nodes 3), bounds (human and records),
table, sigma-elementary (unbounded and at --max-nodes 3), exact on the group
read back from a group file, and exact on the first element class with
--write-lp and --write-instance, the written files included. Then come
batch on every suite and on an unknown one, in both formats, unbounded and
at --max-nodes 1, and the error paths: budget validation, a cyclic group,
--max-order, --max-lattice and a missing --maximals file. For each run it
prints the command, then its exit code, standard output and standard error.
Record times (time=0.12s) and the human report's time column are masked.

Run: python3 scripts/cli_text.py [KEY ...] > cli.txt
With KEYs, only those library groups and the error paths, no batch suite.
"""

import contextlib
import io
import os
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from covnum import library
from covnum.cli import main
from covnum.groups import format_group_file


def mask_times(text: str) -> str:
    """Record times and the human report's time column (7 wide, then s)."""
    text = re.sub(r"time=\d+\.\d\ds", "time=T.TTs", text)
    return re.sub(r"[ \d]{3}\d\.\d\ds", "   T.TTs", text)


def group_runs(key: str) -> list[list[str]]:
    lib, grp, group = ["--library", key], f"{key}.grp", library.group(key)
    Path(grp).write_text(format_group_file(group))
    first_class = group.conjugacy_classes().classes[0].label
    return [["exact", *lib], ["exact", *lib, "--format", "records"],
            ["exact", *lib, "--max-nodes", "3", "--format", "records"],
            ["bounds", *lib], ["bounds", *lib, "--format", "records"],
            ["table", *lib],
            ["sigma-elementary", *lib], ["sigma-elementary", *lib, "--max-nodes", "3"],
            ["exact", "--file", grp, "--format", "records"],
            ["exact", *lib, "--classes", first_class, "--format", "records",
             "--write-lp", f"{key}.lp", "--write-instance", f"{key}.inst"]]


def batch_runs() -> list[list[str]]:
    suites = [*library.SUITES, "solvable-oracle", "nope"]
    return [["batch", suite, *fmt, *budget] for suite in suites
            for fmt in ([], ["--format", "records"])
            for budget in ([], ["--max-nodes", "1"])]


ERROR_RUNS = [
    ["exact", "--library", "A5", "--max-nodes", "-1"],
    ["exact", "--library", "A5", "--time-limit", "-1"],
    ["exact", "--library", "A5", "--time-limit", "nan"],
    ["exact", "--library", "C5"], ["bounds", "--library", "C6"], ["table", "--library", "C5"],
    ["exact", "--library", "A6", "--max-order", "100"],
    ["exact", "--library", "A6", "--max-lattice", "100"],
    ["exact", "--file", "A5.grp", "--maximals", "missing.max"],
]


def run(argv: list[str]) -> str:
    """The masked text of one run: command, exit code, stdout, stderr, and
    any file it wrote."""
    before = set(os.listdir())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    parts = [f"$ covnum {' '.join(argv)}", f"exit {code}", "-- stdout", out.getvalue(),
             "-- stderr", err.getvalue()]
    for name in sorted(set(os.listdir()) - before):
        parts += [f"-- file {name}", Path(name).read_text()]
        os.remove(name)
    return mask_times("\n".join(parts)) + "\n"


def main_text(keys: list[str]) -> str:
    """The text of every run, in a scratch working directory so that the
    files read and written have the same relative names on every machine."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            runs = [argv for key in keys or library.names() for argv in group_runs(key)]
            Path("A5.grp").write_text(format_group_file(library.group("A5")))
            runs += ERROR_RUNS + ([] if keys else batch_runs())
            return "".join(run(argv) for argv in runs)
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    sys.stdout.write(main_text(sys.argv[1:]))
