"""Print each CLI subcommand's process time over a bare interpreter's.

    python tools/startup.py

Each of the ``ROUNDS`` rounds spawns ``python -c pass`` and each
subcommand once, on a small input, with ``PYTHONDONTWRITEBYTECODE=1`` so
that no run reads bytecode a previous one wrote; every other round runs
them in the reverse order, so no command always runs first.  The report is,
for each subcommand, the median over the rounds of its wall time minus that
round's ``python -c pass``, in milliseconds: what avalg adds to a process,
start-up and the call itself.  Differences within a round share the host's
state at that moment, so they swing far less than separate medians over
sequential rounds did.  After the timed
rounds one more process per subcommand lists the avalg modules whose code
ran and their source lines, most of what such a process compiles.  It only
reports and fails on nothing but a command that exits wrongly.
"""

import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 30
INSTANCE = '{"dim": 1, "basis": ["1"], "mul": [[["1"]]], "op": [["1"]]}'
COMMANDS = (
    ("normalize", "[x][x]^2"),
    ("product", "x", "[x]"),
    ("apply-p", "x[x]"),
    ("analyze", "x[y]"),
    ("census", "--max-degree", "2"),
    ("series", "--kind", "I", "--N", "3", "--M", "7"),
    ("schroeder", "--n", "7"),
    ("schroeder-trees", "--n", "3"),
    ("word2tree", "x[x]"),
    ("tree2word", "B(L,U(L))"),
    ("compose", "B(L,L)", "2", "U(L)"),
    ("check-instance", "INSTANCE"),
)


# Runs cli.main on the arguments, its output discarded, then prints the name
# and file of each avalg module whose code ran: a lazily registered module
# that never ran is not a plain ModuleType.
LOADED = """
import contextlib, io, sys, types
from avalg import cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(sys.argv[1:])
for name, module in sorted(sys.modules.items()):
    if name.split(".")[0] == "avalg" and type(module) is types.ModuleType:
        print(name, module.__file__)
"""


def loaded(argv, env) -> tuple:
    """(module names, source lines) of the avalg modules ``argv`` runs."""
    out = subprocess.run([sys.executable, "-c", LOADED, *argv], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    names, files = [n.partition(".")[2] or n for n in out[::2]], out[1::2]
    return names, sum(len(Path(f).read_text().splitlines()) for f in files)


def spawn(argv, env) -> float:
    start = time.perf_counter()
    subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start


def main() -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as tmp:
        instance = Path(tmp) / "instance.json"
        instance.write_text(INSTANCE)
        commands = [[str(instance) if a == "INSTANCE" else a for a in c] for c in COMMANDS]
        runs = [("pass", [sys.executable, "-c", "pass"])]
        runs += [(argv[0], [sys.executable, "-m", "avalg", *argv]) for argv in commands]
        bare, added = [], {argv[0]: [] for argv in commands}
        for round_ in range(ROUNDS):
            order = runs if round_ % 2 == 0 else runs[::-1]
            times = {name: spawn(argv, env) for name, argv in order}
            bare.append(times.pop("pass"))
            for name, wall in times.items():
                added[name].append(wall - bare[-1])
        modules = {argv[0]: loaded(argv, env) for argv in commands}
    print(f"python -c pass: {statistics.median(bare) * 1e3:.1f} ms (median of {ROUNDS});"
          " each subcommand: the median of its difference from that round's")
    for name, samples in added.items():
        names, lines = modules[name]
        print(f"{name:16s} +{statistics.median(samples) * 1e3:6.1f} ms"
              f"  {lines:5d} lines: {' '.join(names)}")


if __name__ == "__main__":
    main()
