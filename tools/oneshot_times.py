"""Time whole ``resemi`` processes: the four commands on fixed instances.

Each run starts a fresh interpreter that runs one command through
``resemi.cli.main``, as the ``resemi`` entry point does, and times it from
start to exit.  Every command runs as ``python3 -c`` and as ``python3 -S
-c`` (without the ``site`` module, and so without what site-packages load
at start-up).  The source trees given run interleaved, their order
rotating from run to run, so a change in the machine's state falls on
each tree alike.  Bytecode caches go to a private ``PYTHONPYCACHEPREFIX``
in a temporary directory, filled by one untimed run of each command, so
every timed run reads them and no tree is written to.

Run from the repository root: ``python tools/oneshot_times.py``; or give
one or more ``src`` directories and the runs per command and mode:
``python tools/oneshot_times.py --runs 30 ../parent/src src``.  It prints
the median and quartiles, in milliseconds, of each command and mode for
each tree.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The four commands, each on one fixed instance.
COMMANDS = {
    "build": ["build", "--kind", "t", "--n", "3", "--y", "0,1", "--sy", "0,1;1,0"],
    "classify": ["classify", "--kind", "t", "--n", "3", "--y", "0,1", "--sy", "0,1;1,0"],
    "element": ["element", "--kind", "l", "--p", "2", "--n", "2", "--w", "1,0", "--sw", "1",
                "--f", "1,0;0,1", "--format", "json"],
    "sweep": ["sweep", "--kind", "t", "--ns", "2"],
}
MODES = {"-c": ["-c"], "-S -c": ["-S", "-c"]}
CASES = [(command, mode) for command in COMMANDS for mode in MODES]
PROGRAM = "import sys; from resemi.cli import main; sys.exit(main())"


def run_once(src: Path, mode: str, argv: list[str], cache: str) -> float:
    """Seconds one ``resemi`` process takes from start to exit; a command
    that exits other than 0 stops the script."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONPYCACHEPREFIX": cache}
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # the timed runs read the caches it writes
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *MODES[mode], PROGRAM, *argv], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"{src}: resemi {' '.join(argv)} exited {proc.returncode}: {proc.stderr}")
    return elapsed


def quartiles(times: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of ``times``."""
    if len(times) < 2:
        return times[0], times[0], times[0]
    q1, q2, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return q1, q2, q3


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=30, help="timed runs per command and mode")
    ap.add_argument("trees", nargs="*", type=Path, default=[ROOT / "src"],
                    help="src directories holding the resemi package")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    trees = [tree.resolve() for tree in args.trees]
    for tree in trees:
        if not (tree / "resemi" / "cli.py").is_file():
            ap.error(f"{tree} holds no resemi package")
    times = {(i, command, mode): [] for i in range(len(trees)) for command, mode in CASES}
    with tempfile.TemporaryDirectory(prefix="oneshot-") as cache:
        for i, tree in enumerate(trees):  # fill the bytecode caches, untimed
            for command, mode in CASES:
                run_once(tree, mode, COMMANDS[command], cache)
        for n in range(args.runs):
            for command, mode in CASES:
                for i in ((n + k) % len(trees) for k in range(len(trees))):
                    elapsed = run_once(trees[i], mode, COMMANDS[command], cache)
                    times[i, command, mode].append(elapsed)
    for i, tree in enumerate(trees):
        print(f"tree {i}: {tree}")
    print(f"{'tree':>4} {'command':<9} {'mode':<6} {'runs':>4} {'median':>8} {'q1':>8} {'q3':>8}")
    for (i, command, mode), values in times.items():
        q1, median, q3 = (1000 * t for t in quartiles(values))
        print(f"{i:>4} {command:<9} {mode:<6} {len(values):>4} {median:>8.2f} {q1:>8.2f} {q3:>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
