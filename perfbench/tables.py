"""The tables workload: ``python -m avalg`` processes run one at a time.

A pass runs the table commands (census, series, Schroeder numbers and
trees), ``check-instance`` on every standard fixture, a few seeded small
``normalize``, ``compose`` and ``word2tree`` calls and one malformed word.
Each process is one op.  Outputs are checked after the pass, untimed, in the
benchmark's own process.
"""

import csv
import io
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import avalg.algebra as alg
import avalg.enumeration as enum
import avalg.instances as inst
import avalg.words as words

import reference as ref
import stats

HERE = Path(__file__).resolve().parent
EXIT_PARSE = 2

# (run cap, max degree, max arity or None, format, list words)
CENSUS = {
    "full": ((1, 8, None, "json", False), (2, 5, 12, "json", False),
             (math.inf, 3, 10, "csv", False), (1, 6, None, "json", True)),
    "smoke": ((1, 3, None, "json", False), (2, 2, 6, "json", False),
              (math.inf, 2, 5, "csv", False), (1, 3, None, "json", True)),
}
SIZES = {
    "full": {"series_n": 30, "schroeder_n": 18, "schroeder_trees_n": 8, "small": 13},
    "smoke": {"series_n": 6, "schroeder_n": 8, "schroeder_trees_n": 4, "small": 2},
}
SMALL_WORD_SIZE = 16
COMMANDS = ("census", "series", "schroeder", "schroeder-trees", "check-instance",
            "normalize", "compose", "word2tree")


class Command:
    """One CLI process: its arguments, the exit code it must give and its check."""

    def __init__(self, argv, check, exit_code=0):
        self.argv = [str(a) for a in argv]
        self.check = check
        self.exit_code = exit_code

    @property
    def kind(self):
        return self.argv[0]


def _payload(stdout):
    return json.loads(stdout)["payload"]


def _problem(ok, message):
    return None if ok else message


class Tables:
    """Fixture files, expected values and the command list for one run."""

    def __init__(self, scale, workdir, env, timeout):
        self.scale = scale
        self.size = SIZES[scale]
        self.env = env
        self.timeout = timeout
        self.workdir = Path(workdir)
        self.schroeder = ref.schroeder_numbers(2 * self.size["series_n"] + 2)
        self.fixtures = []
        for name, algebra in sorted(inst.standard_fixtures().items()):
            path = self.workdir / f"{name}.json"
            path.write_text(json.dumps(inst.algebra_to_json(algebra)))
            self.fixtures.append((path, algebra))
        self.stderr_path = self.workdir / "stderr.txt"

    # -- expected outputs -------------------------------------------------

    def _census(self, cap, degree, arity, fmt, list_words):
        argv = ["census", "--run-cap", "inf" if cap == math.inf else cap, "--max-degree", degree]
        if arity is not None:
            argv += ["--max-arity", arity]
        arity = arity if arity is not None else int(cap) * (2 * degree + 1)
        if list_words:
            argv.append("--list-words")
        if fmt != "json":
            argv += ["--format", fmt]
        expected = enum.reduce_to_v1(cap, degree, arity, include_one=False).to_json()["cells"]
        totals = [1] + [2 * s for s in self.schroeder[1:degree + 1]]

        def check(stdout):
            if fmt == "csv":
                rows = list(csv.reader(io.StringIO(stdout.decode())))[1:]
                cells = [[int(c) for c in row] for row in rows]
                return _problem(cells == expected, f"census {argv} differs from reduce_to_v1")
            payload = _payload(stdout)
            if payload["cells"] != expected:
                return f"census {argv} differs from reduce_to_v1"
            if cap == 1 and payload["degree_totals"] != totals:
                return f"census {argv} degree totals are not 2 s_n"
            if list_words:
                return self._check_listed(payload["words"], expected)
            return None

        return Command(argv, check)

    @staticmethod
    def _check_listed(listed, cells):
        counts = {f"{n},{m}": c for n, m, c in cells}
        if {k: len(v) for k, v in listed.items()} != counts:
            return "census --list-words lists other counts than its cells"
        for key, texts in listed.items():
            n, m = (int(part) for part in key.split(","))
            if len(set(texts)) != len(texts):
                return f"census --list-words repeats a word in cell {key}"
            for text in texts:
                if ref.letters(text) != ["x"] * m or ref.bracket_power(text) != n:
                    return f"census --list-words puts {text!r} in cell {key}"
        return None

    def _series(self):
        n_max = self.size["series_n"]

        def check(stdout):
            sums = [0] * (n_max + 1)
            for n, _, count in _payload(stdout)["cells"]:
                sums[n] += count
            return _problem(sums == [2 * s for s in self.schroeder[:n_max + 1]],
                            "series A row sums are not 2 s_n")

        return Command(["series", "--kind", "A", "--N", n_max, "--M", 2 * n_max + 1], check)

    def _schroeder(self):
        n = self.size["schroeder_n"]
        return Command(["schroeder", "--n", n], lambda out: _problem(
            _payload(out)["value"] == self.schroeder[n], f"schroeder({n}) is not s_{n}"))

    def _schroeder_trees(self):
        n = self.size["schroeder_trees_n"]

        def check(stdout):
            payload = _payload(stdout)
            listed = payload["trees"]
            ok = payload["count"] == len(listed) == len(set(listed)) == self.schroeder[n - 1]
            return _problem(ok, f"schroeder-trees --n {n} does not list s_{n - 1} distinct trees")

        return Command(["schroeder-trees", "--n", n], check)

    @staticmethod
    def _check_instance(path, algebra):
        def check(stdout):
            payload = _payload(stdout)
            ok = (payload["dim"] == algebra.dim and payload["basis"] == list(algebra.basis)
                  and payload["associative"] is True and payload["averaging"]["ok"] is True)
            return _problem(ok, f"check-instance rejects the averaging fixture {path.name}")

        return Command(["check-instance", path], check)

    @staticmethod
    def _normalize(text):
        expected = words.render_word(alg.rewrite_reduce(words.parse_word(text)))
        return Command(["normalize", text], lambda out: _problem(
            _payload(out)["word"] == expected, f"normalize {text!r} is not {expected!r}"))

    @staticmethod
    def _compose(outer, index, inner):
        spliced = words.parse_word(ref.splice(outer, index, inner))
        expected = words.render_word(alg.rewrite_reduce(spliced))
        leaves = len(ref.letters(outer)) + len(ref.letters(inner)) - 1

        def check(stdout):
            payload = _payload(stdout)
            ok = payload["word"] == expected and ref.tree_leaves(payload["tree"]) == leaves
            return _problem(ok, f"compose {outer!r} {index} {inner!r} is not {expected!r}")

        return Command(["compose", outer, index, inner], check)

    @staticmethod
    def _word2tree(text):
        def check(stdout):
            payload = _payload(stdout)
            ok = (payload["word"] == text
                  and ref.tree_leaves(payload["tree"]) == len(ref.letters(text))
                  and ref.tree_unis(payload["tree"]) == ref.bracket_power(text))
            return _problem(ok, f"word2tree {text!r} gives a tree of another shape")

        return Command(["word2tree", text], check)

    def commands(self, rng):
        """The seeded command list of one pass, in a seeded order."""
        cmds = [self._census(*spec) for spec in CENSUS[self.scale]]
        cmds += [self._series(), self._schroeder(), self._schroeder_trees()]
        cmds += [self._check_instance(path, algebra) for path, algebra in self.fixtures]

        def small_word():
            return words.render_word(
                words.random_bracketed_word(rng, max_size=SMALL_WORD_SIZE))

        def x_word():
            return words.render_word(words.random_averaging_word(rng, ("x",), max_depth=3))

        for _ in range(self.size["small"]):
            cmds.append(self._normalize(small_word()))
            outer, inner = x_word(), x_word()
            cmds.append(self._compose(outer, rng.randint(1, len(ref.letters(outer))), inner))
            cmds.append(self._word2tree(x_word()))
        malformed = small_word() + "]"
        cmds.append(Command(["normalize", malformed],
                            lambda out: _problem(out == b"", "malformed input printed a payload"),
                            exit_code=EXIT_PARSE))
        rng.shuffle(cmds)
        return cmds

    # -- running ----------------------------------------------------------

    def spawn(self, argv, trace_out=None):
        """Run one CLI process; returns (exit code, stdout, wall s, peak RSS KB,
        last line of stderr)."""
        env = dict(self.env)
        if trace_out is None:
            prefix = [sys.executable, "-m", "avalg"]
        else:
            prefix = [sys.executable, str(HERE / "cli_boot.py")]
            env["PERFBENCH_TRACE_OUT"] = str(trace_out)
        with open(self.stderr_path, "wb") as err:
            env["PERFBENCH_SPAWN_NS"] = str(time.monotonic_ns())
            began = time.perf_counter()
            proc = subprocess.Popen(prefix + argv, stdout=subprocess.PIPE, stderr=err, env=env)
            timer = threading.Timer(self.timeout, proc.kill)
            timer.start()
            try:
                stdout = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                proc.stdout.close()
            wall = time.perf_counter() - began
        proc.returncode = os.waitstatus_to_exitcode(status)
        last = self.stderr_path.read_text(errors="replace").strip().splitlines()[-1:]
        return proc.returncode, stdout, wall, usage.ru_maxrss, last

    def setup_time(self):
        """(wall time of a no-work CLI call, which every CLI user pays, and a
        calibration reading taken just before it)."""
        calibration = stats.calibrate()
        code, stdout, wall, _, _ = self.spawn(["schroeder", "--n", "0"])
        if code != 0 or _payload(stdout)["value"] != 1:
            raise RuntimeError("avalg schroeder --n 0 failed")
        return wall, calibration

    def run_pass(self, rng, trace_dir=None):
        """One pass; the result has the same keys as a worker's.

        A calibration reading is taken before every command and after the
        last; the wall time leaves the readings out.
        """
        cmds = self.commands(rng)
        results, calibration = [], []
        wall_ns = 0
        for index, cmd in enumerate(cmds):
            calibration.append((index, stats.calibrate()))
            trace_out = None if trace_dir is None else Path(trace_dir) / f"{index:03d}-{cmd.kind}"
            began = time.perf_counter_ns()
            results.append(self.spawn(cmd.argv, trace_out))
            wall_ns += time.perf_counter_ns() - began
        calibration.append((len(cmds), stats.calibrate()))
        failures = []
        for cmd, (code, stdout, _, _, stderr) in zip(cmds, results):
            problem = self._judge(cmd, code, stdout, stderr)
            if problem:
                failures.append(problem)
        out = {
            "ops": len(cmds),
            "failed": len(failures),
            "failures": failures[:5],
            "problems": [],
            "wall_ns": wall_ns,
            "latencies_ns": [int(r[2] * 1e9) for r in results],
            "calibration": calibration,
            "peak_rss_kb": max(r[3] for r in results),
            "stdout_bytes": sum(len(r[1]) for r in results),
            "command_wall_s": {kind: sum(r[2] for c, r in zip(cmds, results) if c.kind == kind)
                               for kind in COMMANDS},
        }
        if trace_dir is not None:
            out["children"] = [json.loads((Path(trace_dir) / f"{i:03d}-{c.kind}.json").read_text())
                               for i, c in enumerate(cmds)]
        return out

    @staticmethod
    def _judge(cmd, code, stdout, stderr):
        if code != cmd.exit_code:
            return f"{' '.join(cmd.argv)[:80]} exited {code}, not {cmd.exit_code} {stderr}"
        try:
            return cmd.check(stdout)
        except (ValueError, KeyError, TypeError) as exc:
            return f"{' '.join(cmd.argv)[:80]} printed an unreadable payload: {exc}"


def merge_children(children):
    """Sum the traced CLI processes' summaries into one."""
    merged = {"calls": {}, "self_ns": {}, "total_ns": {}, "counts": {}, "root_ns": 0,
              "caches": {}}
    for child in children:
        for field in ("calls", "self_ns", "total_ns", "counts"):
            for name, value in child[field].items():
                merged[field][name] = merged[field].get(name, 0) + value
        merged["root_ns"] += child["root_ns"] + child["startup_ns"]
        for layer, values in child["caches"].items():
            old = merged["caches"].get(layer, [0, 0, 0])
            merged["caches"][layer] = [a + b for a, b in zip(old, values)]
    merged["startup_s"] = statistics.median(c["startup_ns"] for c in children) / 1e9
    return merged
