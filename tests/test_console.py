"""The console checks: one table of resemi command lines, each with the
exit code it must give, the texts its stdout and stderr must hold, in
order, and a bound on its wall time.

A row runs through ``cli.main`` in this process, unless it is ``fresh``:
the long runs, whose time and memory a warm process would understate,
run in a fresh interpreter with the wall bound as its timeout, and a
fresh row may also bound the peak RSS that the child reports of itself.
Checks that another test already makes on the same command line are not
repeated here.
"""

import os
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import pytest

import resemi
from resemi.cli import main

ROOT = Path(__file__).resolve().parent.parent

# Runs resemi.cli as ``python -m resemi.cli`` does, then prints the
# process's own peak RSS in MB as the last line of stderr.  The peak is
# VmHWM, which a new program starts afresh: ``getrusage`` would count the
# RSS of the test process the child is forked from.
CHILD = """\
import runpy, sys
try:
    runpy.run_module("resemi.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as status:
        kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    print(kb / 1024, file=sys.stderr)
"""


class Row(NamedTuple):
    argv: tuple
    code: int
    out: tuple = ()
    err: tuple = ()
    wall: float = 5.0
    fresh: bool = False
    peak_mb: float | None = None


BOUND = "more than 100000 instances, the sweep instance bound"
L4 = ("--kind", "l", "--p", "2", "--n", "4")

ROWS = {
    # each command's own parser prints its help and exits 0
    **{f"{command}-help": Row((command, "--help"), 0, (f"usage: resemi {command} ",))
       for command in ("classify", "element", "sweep")},
    # a blank ';'-part of --f is skipped
    "element-blank-row": Row(("element", "--kind", "l", "--p", "2", "--n", "2", "--w", "1,0",
                              "--sw", "1", "--f", "1,0;;0,1"), 0,
                             ("regular: theorem=True", "unit_regular: theorem=True")),
    # a 17-digit prime modulus is tested by Miller-Rabin, not trial division
    "17-digit-prime": Row(("classify", "--kind", "l", "--p", "10000000000000061", "--n", "1",
                           "--w", "1", "--sw", "1"), 0, ("regular: theorem=True",)),
    # the exit-3 line of a build past the table names the 4,096-element bound
    "l4-past-the-table": Row(("build", *L4, "--w", "", "--sw", ""), 3, (), ("4096",)),
    # build has no modes, and the bounds on work are stated in the code
    "build-mode": Row(("build", "--kind", "t", "--n", "2", "--y", "0", "--sy", "0",
                       "--mode", "regular"), 2, (), ("error: unrecognized arguments: --mode",)),
    "build-size-cap": Row(("build", "--kind", "t", "--n", "2", "--y", "0", "--sy", "0",
                           "--size-cap", "2"), 2, (), ("error: unrecognized arguments: --size-cap",)),
    # the empty-Y sweeps, as text
    "empty-y-t2": Row(("sweep", "--kind", "t", "--ns", "2", "--sizes", "0", "--format", "text"),
                      0, ("instances run: 1\n", "mismatches: 0\n")),
    "empty-y-t1-t3": Row(("sweep", "--kind", "t", "--ns", "1,2,3", "--sizes", "0",
                          "--format", "text"), 0, ("instances run: 3\n", "mismatches: 0\n")),
    # seeded draws from T(6), one of whose closures passes the table
    "t6-5-draws": Row(("sweep", "--kind", "t", "--ns", "6", "--sizes", "6", "--source", "seeded",
                       "--samples", "5", "--element-cap", "0", "--format", "text"),
                      0, ("mismatches: 0\n",)),
    # the instances of a plan are counted before its first cell runs:
    # C(30, 15) regions, 2^30 - 1 lines and [12 6]_2 planes of dimension 6
    **{f"instance-bound-{name}": Row(("sweep", *cells, "--source", "seeded", "--samples", "1",
                                      "--element-cap", "0"), 3, (), (f"{BOUND}\n",), fresh=True)
       for name, cells in (("t30", ("--kind", "t", "--ns", "30", "--sizes", "15")),
                           ("gf2^30", ("--kind", "l", "--pn", "2,30", "--sizes", "1")),
                           ("gf2^12", ("--kind", "l", "--pn", "2,12", "--sizes", "6")))},
    # one closure of maps on 100,000 points is past the seeded closure
    # budget, refused before its first draw
    "t100000-closure-budget": Row(("sweep", "--kind", "t", "--ns", "100000", "--sizes", "100000",
                                   "--source", "seeded", "--samples", "1", "--element-cap", "0"),
                                  3, (), ("error: intractable seeded request over T(100000): more "
                                          "than 10000000 point steps per closure, the seeded "
                                          "closure budget\n",), fresh=True),
    # with no draws, the plan selects no instance, and no region is listed
    "no-draws-t30": Row(("sweep", "--kind", "t", "--ns", "30", "--sizes", "15", "--source", "seeded",
                         "--samples", "0"), 2, (), ("error: the plan selects no instance\n",),
                        fresh=True),
    # every one of T(3)'s 1,298 subsemigroups, and the 5,192 instances on
    # the four 3-point regions of |X| = 4, which share T(3)'s tables
    "t3-regions-of-t3": Row(("sweep", "--kind", "t", "--ns", "3", "--sizes", "3",
                             "--element-cap", "0", "--format", "text"),
                            0, ("instances run: 1298\n", "mismatches: 0\n"), wall=60, fresh=True),
    "t3-regions-of-t4": Row(("sweep", "--kind", "t", "--ns", "4", "--sizes", "3",
                             "--element-cap", "0", "--format", "text"),
                            0, ("instances run: 5192\n", "mismatches: 0\n"), wall=60, fresh=True),
    # 39 closures of T(6), up to 3,010 elements each, each tabled only
    # while its instance runs (237 MB with every table kept)
    "t6-40-draws": Row(("sweep", "--kind", "t", "--ns", "6", "--sizes", "6", "--source", "seeded",
                        "--samples", "40", "--element-cap", "0", "--format", "text"),
                       0, ("mismatches: 0\n",), wall=60, fresh=True, peak_mb=160),
    # the largest table, 4,096 elements, answers classify's four oracle
    # questions; inverse reads regular's kept partners
    "l4-classify": Row(("classify", *L4, "--w", "1,0,0,0", "--sw", "1"), 0,
                       ("regular: ", "oracle=True\n", "inverse: ", "oracle=False\n",
                        "unit_regular: ", "oracle=True\n", "completely_regular: ", "oracle=False\n"),
                       wall=30, fresh=True),
    # GF(2)^12 with three draws is within the seeded cell budget
    "gf2^12-3-draws": Row(("sweep", "--kind", "l", "--pn", "2,12", "--sizes", "12",
                           "--source", "seeded", "--samples", "3", "--element-cap", "0",
                           "--format", "text"), 0, ("mismatches: 0\n",), wall=30, fresh=True),
}


def _env() -> dict:
    """The environment with this resemi first on PYTHONPATH."""
    path = os.path.dirname(os.path.dirname(resemi.__file__))
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [path, os.environ.get("PYTHONPATH")]))}


def _in_order(text: str, parts: tuple) -> bool:
    """Whether ``parts`` occur in ``text``, each after the one before."""
    at = 0
    for part in parts:
        at = text.find(part, at)
        if at < 0:
            return False
        at += len(part)
    return True


@pytest.mark.parametrize("row", ROWS.values(), ids=ROWS)
def test_console(capsys, row):
    start = time.perf_counter()
    if row.fresh:
        proc = subprocess.run([sys.executable, "-c", CHILD, *row.argv], env=_env(),
                              capture_output=True, text=True, timeout=row.wall)
        *lines, peak = proc.stderr.splitlines(keepends=True)
        code, out, err = proc.returncode, proc.stdout, "".join(lines)
        if row.peak_mb is not None:
            assert float(peak) < row.peak_mb
    else:
        try:
            code = main(list(row.argv))
        except SystemExit as stop:  # --help
            code = stop.code
        out, err = capsys.readouterr()
    assert time.perf_counter() - start < row.wall
    assert code == row.code, err
    assert _in_order(out, row.out), out
    assert _in_order(err, row.err), err


def test_readme_quick_start():
    # the first python block after the heading, run as written
    lines = (ROOT / "README.md").read_text().splitlines()
    begin = lines.index("```python", lines.index("## Library quick start")) + 1
    code = "\n".join(lines[begin:lines.index("```", begin)])
    proc = subprocess.run([sys.executable, "-c", code], env=_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
