"""Mutation check of code that no second implementation cross-checks.

Both reducers build ``algebra._Node``s and freeze them through
``algebra._freeze``, so a bug there can no longer show up as a disagreement
between the two.  Every identity of a finite algebra, the idempotent
grading among them, is checked by ``instances._first_failure``, and
``instances._solve`` alone finds units.  Every product and operator of a
finite algebra, ``universal_map``'s among them, runs on the code that
``instances._unrolled`` writes, over the numerators of ``encode`` and
``_lowest``.  One engine, ``_engine.Family``, counts, walks, unranks and
draws every family declared in it, and one case
split, ``_grammar._split_words``, is behind the census,
``iter_averaging_words``, the uniform words of the property tests and
``random_averaging_word``, so they share their bugs too; the bracketed
words and the Schroeder trees are declared in ``_families``.  One recurrence,
``enumeration._solve_i`` (the rows of the square root of I's
discriminant), solves every series kind: B is read off I, and D, C and A
off both, so a bug there reaches all five, and the census checks each cell
against the same series.  One three-term recurrence,
``enumeration.iter_schroeder_numbers``, gives every Schroeder number.
Every word text is lexed by ``words._TOKEN_RE``.  ``words._close`` closes
every bracket, the public ``Bracket``'s and those that ``parse_word``, the
reducers and the family declarations build, folding
``[[w]^p]^q`` into ``[w]^(p+q)``; every value class that is not its text
(the bracketed words and the tree vertices are) compares, hashes and
pickles through ``_record.Record``'s ``__eq__``, ``__hash__`` and
``__reduce__``, but for ``AveragingTree``, which keeps its own ``==`` and
hash; and the exit code of every command comes from the one table in
``cli.main``, whose input entry must not widen back to any ``ValueError``.
Each mutant below is one single-line edit to the source file it names.  For
each one the script copies ``src/`` and ``tests/`` into a temporary
directory, applies the edit and runs ``pytest -x -q`` on the mutant's test
files, stopping it after ``TIMEOUT`` seconds (a broken rule can spin until
its step budget runs out).  It prints killed or survived, the seconds taken
and the first failing test, and exits 1 if any mutant survives, 2 if the
unmutated copy fails its tests or an edit no longer matches its source.  It writes nothing into the repository.

Run from the repository root::

    python tools/mutants.py
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALGEBRA = "src/avalg/algebra.py"
WORD_GRAMMAR = "src/avalg/_grammar.py"
ENGINE_FILE = "src/avalg/_engine.py"
FAMILIES = "src/avalg/_families.py"
INSTANCES = "src/avalg/instances.py"
WORDS = "src/avalg/words.py"
ENUMERATION = "src/avalg/enumeration.py"
RECORD = "src/avalg/_record.py"
CLI = "src/avalg/cli.py"
TIMEOUT = 300  # seconds per mutant

# test_algebra.py comes first, so a mutant of the evaluation core is named
# by a test that does not compare reduce with rewrite_reduce
EVALUATION = ("tests/test_algebra.py", "tests/test_cli_golden.py",
              "tests/test_operad.py", "tests/test_rewrite.py")
REWRITE = ("tests/test_rewrite.py", "tests/test_algebra.py")
CHECKS = ("tests/test_instances.py", "tests/test_acceptance.py")
KERNEL = ("tests/test_instances.py", "tests/test_algebra.py")
GRAMMAR = ("tests/test_words.py", "tests/test_enumeration.py", "tests/test_uniform_words.py",
           "tests/test_seeded_draws.py")
ENGINE = ("tests/test_families.py",) + GRAMMAR
DECLARED = ("tests/test_families.py", "tests/test_seeded_draws.py", "tests/test_words.py",
            "tests/test_trees.py")
SERIES = ("tests/test_enumeration.py",)
VALUES = ("tests/test_value_classes.py",)
CONTRACT = ("tests/test_cli.py", "tests/test_cli_fuzz.py")

# (name, file, source text, mutated text, test files); each edit changes one
# line, and its source text occurs once in its file
MUTANTS = (
    ("_freeze: powers dropped",
     ALGEBRA, "factors[i] = close(node.core, node.power)",
     "factors[i] = close(node.core, 1)", EVALUATION),
    ("_freeze: parents closed before their children",
     ALGEBRA, "for factors, i in reversed(places):",
     "for factors, i in places:", EVALUATION),
    ("_owned: always copies",
     ALGEBRA, "if type(f) is _Node:\n        return f",
     "if False:\n        return f", EVALUATION),
    ("_thaw: merges append at the top of the spine",
     ALGEBRA, "node.bottom = cell.core",
     "node.bottom = node.core", EVALUATION),
    ("_merge: power off by one",
     ALGEBRA, "left.power += right.power - 1",
     "left.power += right.power", EVALUATION),
    ("_apply_p: plain wrap squares",
     ALGEBRA, "return _Node(u, 1, u)",
     "return _Node(u, 2, u)", EVALUATION),
    ("_value: power off by one",
     ALGEBRA, "node.power += power - 1",
     "node.power += power", EVALUATION),
    ("_rewrite R1: new bracket squared",
     ALGEBRA, "node = _Node([f, right], 1, None)",
     "node = _Node([f, right], 2, None)", REWRITE),
    ("_rewrite R1: grown bracket marked clean",
     ALGEBRA, "node.clean = False",
     "node.clean = True", REWRITE),
    ("_rewrite R2: [[v]^r] kept at power r",
     ALGEBRA, "tail.power += 1",
     "tail.power += 0", REWRITE),
    ("_rewrite R3: power off by one",
     ALGEBRA, "f.power += last.power - 1",
     "f.power += last.power", REWRITE),
    ("_rewrite climb: power off by one",
     ALGEBRA, "owner.power += f.power - 1",
     "owner.power += f.power", REWRITE),
    ("_first_failure: only the first two sides compared",
     INSTANCES, "if any(v != first for v in rest):",
     "if any(v != first for v in rest[:1]):", CHECKS),
    ("decomposition_is_graded: R0 R1 dropped",
     INSTANCES, "alg.operator(alg.multiply(p[i], k[j]))",
     "alg.zero", CHECKS),
    ("decomposition_is_graded: R1 R0 dropped",
     INSTANCES, "alg.operator(alg.multiply(k[j], p[i]))",
     "alg.zero", CHECKS),
    ("_solve: an inconsistent system solved",
     INSTANCES, "if pivots and pivots[-1] == n:",
     "if pivots and pivots[-1] > n:", CHECKS),
    ("encode: numerators not brought to the common denominator",
     INSTANCES, "return tuple([a.numerator * (d // a.denominator) for a in x]), d",
     "return tuple([a.numerator for a in x]), d", KERNEL),
    ("_lowest: the common gcd never divided out",
     INSTANCES, "if g == 1:",
     "if g:", KERNEL),
    ("_unrolled: a cell guarded by y at x's index",
     INSTANCES, 'guarded += [f"  b = y[{j}]", "  if b:", "   ab = a * b"]',
     'guarded += [f"  b = y[{i}]", "  if b:", "   ab = a * b"]', KERNEL),
    ("_unrolled: a cell's factors added, not multiplied",
     INSTANCES, '"   ab = a * b"]',
     '"   ab = a + b"]', KERNEL),
    ("_unrolled: each constant read one place early",
     INSTANCES, "C[{len(constants)}]",
     "C[{len(constants) - 1}]", KERNEL),
    ("_split_words: run bound off by one",
     WORD_GRAMMAR, "if a > run_cap * (2 * d + 1):",
     "if a > run_cap * (2 * d):", GRAMMAR),
    ("_split_words: core flag dropped on the last bracket",
     WORD_GRAMMAR, "top = 1 if last and core else min(bd, power_cap)",
     "top = min(bd, power_cap)", GRAMMAR),
    ("_split_words: a bracket's cores one degree below it at every power",
     WORD_GRAMMAR, "yield ((a, d - s, 0, True, caps),), None,",
     "yield ((a, d - 1, 0, True, caps),), None,", GRAMMAR),
    ("Family._branches: a head's count added to the rest's",
     ENGINE_FILE, "size *= self.count(head)",
     "size += self.count(head)", ENGINE),
    ("Family.unrank: the last head read as the slowest",
     ENGINE_FILE, "rank, index = divmod(rank, self.count(head))",
     "index, rank = divmod(rank, self.count(head))", ENGINE),
    ("Family.draw: rank off by one at a family's end",
     ENGINE_FILE, "if rank < count:",
     "if rank <= count:", ENGINE),
    ("_split_bracketed: a core may be a lone bracket",
     FAMILIES, 'if kind == "word" or size == 1:',
     'if kind == "word" or size >= 1:', DECLARED),
    ("_split_schroeder: the trailing iota leaf dropped",
     FAMILIES, "yield (), None, lambda: (_IOTA_LEAF,)",
     "yield (), None, lambda: ()", DECLARED),
    ("series: B's division drops the zt term",
     ENUMERATION, "b[n][m] = i[n + 1][m + 1] - (n == m == 0) - b[n][m - 1]",
     "b[n][m] = i[n + 1][m + 1] - b[n][m - 1]", SERIES),
    ("series: B's division adds the previous cell",
     ENUMERATION, "b[n][m] = i[n + 1][m + 1] - (n == m == 0) - b[n][m - 1]",
     "b[n][m] = i[n + 1][m + 1] - (n == m == 0) + b[n][m - 1]", SERIES),
    ("_solve_i: the sign of a flipped",
     ENUMERATION, "a = [_DELTA.get((1, j), 0) for j in range(3)]",
     "a = [-_DELTA.get((1, j), 0) for j in range(3)]", SERIES),
    ("_solve_i: 3 - 2n off by two",
     ENUMERATION, "((3 - 2 * n) * x",
     "((1 - 2 * n) * x", SERIES),
    ("_solve_i: b times f_(n-1) for f_(n-2)",
     ENUMERATION, "_t_times(b, f[n - 2])",
     "_t_times(b, f[n - 1])", SERIES),
    ("iter_schroeder_numbers: (n - 2) off by one",
     ENUMERATION, "- (n - 2) * prev",
     "- (n - 1) * prev", SERIES),
    ("count_compositions: sign dropped",
     ENUMERATION, "(-1) ** j * math.comb(k, j)",
     "math.comb(k, j)", SERIES),
    ("_RADICAL_FORMS: I's denominator halved",
     ENUMERATION, "{(0, 1): 2}",
     "{(0, 1): 1}", SERIES),
    ("_close: [[w]^p]^q folds to the power p + q - 1",
     WORDS, "core, power = inner.core, inner.power + power",
     "core, power = inner.core, inner.power + power - 1", GRAMMAR),
    ("_TOKEN_RE: a ']' lexed without its power",
     WORDS, r"\](?:\^\d*)?|",
     r"\]|", GRAMMAR),
    ("Record.__eq__: only the first field compared",
     RECORD, "return self._values() == other._values()",
     "return self._values()[:1] == other._values()[:1]", VALUES),
    ("Record.__hash__: only the first field hashed",
     RECORD, "return hash(self._values())",
     "return hash(self._values()[:1])", VALUES),
    ("Record.__reduce__: the last field dropped",
     RECORD, "return type(self), self._values()",
     "return type(self), self._values()[:-1]", VALUES),
    ("main: every ValueError an input error",
     CLI, "except _record.InputError as exc:",
     "except ValueError as exc:", CONTRACT),
)


def run_tests(copy: Path, tests) -> tuple:
    """(passed, seconds, first failing test or reason) of ``pytest -x -q``."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - start, f"timed out after {TIMEOUT} s"
    seconds = time.perf_counter() - start
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    return proc.returncode == 0, seconds, failed.group(1) if failed else f"exit {proc.returncode}"


def main() -> int:
    sources = {path: (ROOT / path).read_text() for _, path, *_ in MUTANTS}
    for name, path, line, _, _ in MUTANTS:
        if sources[path].count(line) != 1:
            print(f"{name}: {line!r} does not occur once in {path}")
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        every = sorted({t for *_, tests in MUTANTS for t in tests})
        passed, seconds, first = run_tests(copy, every)
        print(f"unmutated: {'passed' if passed else 'FAILED ' + first} ({seconds:.1f} s)")
        if not passed:
            return 2
        survivors = 0
        for name, path, line, mutated, tests in MUTANTS:
            (copy / path).write_text(sources[path].replace(line, mutated))
            passed, seconds, first = run_tests(copy, tests)
            (copy / path).write_text(sources[path])
            survivors += passed
            verdict = "SURVIVED" if passed else f"killed by {first}"
            print(f"{name}: {verdict} ({seconds:.1f} s)")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
