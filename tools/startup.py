"""Print each CLI subcommand's process time over a bare interpreter's.

    python tools/startup.py

Each of the ``ROUNDS`` rounds spawns ``python -c pass`` and then each
subcommand once, on a small input, with ``PYTHONDONTWRITEBYTECODE=1`` so
that no run reads bytecode a previous one wrote.  The report is the median wall time of each
subcommand minus the median of ``python -c pass``, in milliseconds: what
avalg adds to a process, start-up and the call itself.  It only reports and
fails on nothing but a command that exits wrongly.
"""

import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 15
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
        bare = []
        times = {c[0]: [] for c in commands}
        for _ in range(ROUNDS):
            bare.append(spawn([sys.executable, "-c", "pass"], env))
            for argv in commands:
                times[argv[0]].append(spawn([sys.executable, "-m", "avalg", *argv], env))
    base = statistics.median(bare)
    print(f"python -c pass: {base * 1e3:.1f} ms (median of {ROUNDS})")
    for name, samples in times.items():
        print(f"{name:16s} +{(statistics.median(samples) - base) * 1e3:6.1f} ms")


if __name__ == "__main__":
    main()
